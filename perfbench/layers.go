package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"powercap/internal/ctlplane"
	"powercap/internal/diba"
	"powercap/internal/solver"
	"powercap/internal/topology"
	"powercap/internal/workload"
)

// probeLayers times the benchmark's own calls into each layer's public
// functions in-process, the same way in every traced run whatever its
// workload: the codec and a loopback transport pair, the control plane's
// handler, the small-n engine, solver and workload fit that sim-hour
// repeats, and the n=10k set-up and parallel step paths. They run
// before the workload, on CPUs nothing else is using.
func probeLayers(b *bench) error {
	l := b.led
	if err := probeTransport(l); err != nil {
		return err
	}
	us, err := nodeUtilities(b.seed, nodeWorkloads(b.seed, apiNodes))
	if err != nil {
		return err
	}
	if err := probeServe(l, us); err != nil {
		return err
	}
	if err := probeHour(l, b.seed); err != nil {
		return err
	}
	return probeScale(l, b.tr, b.seed)
}

// probeHour times sim-hour's three repeated calls on a Sim that has run
// its first simulated minute: one engine round, one solver reference and
// one workload refit.
func probeHour(l *ledger, seed int64) error {
	sim, err := newHourSim(seed)
	if err != nil {
		return err
	}
	if _, err := sim.Run(60, nil); err != nil {
		return err
	}
	en := sim.Engine()
	l.set("engine.step_us", stepCost(func() { en.Step() }), "us")
	var optXs []float64
	for k := 0; k < 21; k++ {
		start := time.Now()
		if _, err := solver.Optimal(sim.Utilities(), sim.Budget()); err != nil {
			return err
		}
		optXs = append(optXs, us(time.Since(start)))
	}
	l.set("solver.optimal_us", median(optXs), "us")
	fitUs, err := fitCost(seed)
	if err != nil {
		return err
	}
	l.set("workload.fit_us", fitUs, "us")
	return nil
}

// The n=10k probes: nested rings of 250 racks of 40 nodes, above the
// engines' 4096-node parallel threshold, under a cluster budget of 160
// W/node and rack PDU budgets of 155 W/node that every rack binds.
const (
	scaleRacks    = 250
	scalePerRack  = 40
	scaleClusterW = 160.0
	scaleRackW    = 155.0
	// scaleBuilds is how many times the probe builds the inputs and
	// engines; each set-up layer figure is the median.
	scaleBuilds = 5
	// stepChunk is how many rounds one step-cost sample times.
	stepChunk = 100
)

// scaleInputs is what the n=10k engines are built from.
type scaleInputs struct {
	g      *topology.Graph
	us     []workload.Utility
	budget float64
	racks  diba.Racks
}

// buildScale generates the topology and utilities from seed and computes
// both solver references, recording one span per layer call under parent.
func buildScale(seed int64, tr *tracer, parent int, op int64) (scaleInputs, error) {
	n := scaleRacks * scalePerRack
	var in scaleInputs
	sp := tr.begin("topology.build", parent, op)
	g, gofs := topology.NestedRings(scaleRacks, scalePerRack)
	tr.end(sp)
	sp = tr.begin("workload.assign", parent, op)
	a, err := workload.Assign(workload.HPC, n, workload.DefaultServer, 0.05, 0, rand.New(rand.NewSource(seed)))
	tr.end(sp)
	if err != nil {
		return in, err
	}
	in.g, in.us, in.budget = g, a.UtilitySlice(), scaleClusterW*float64(n)
	rackBudget := make([]float64, scaleRacks)
	for k := range rackBudget {
		rackBudget[k] = scaleRackW * scalePerRack
	}
	in.racks = diba.Racks{RackOf: gofs[0], RackBudget: rackBudget}
	sp = tr.begin("solver.optimal", parent, op)
	_, err = solver.Optimal(in.us, in.budget)
	tr.end(sp)
	if err != nil {
		return in, err
	}
	sp = tr.begin("solver.optimal_hier", parent, op)
	_, err = solver.OptimalHierarchical(in.us, in.budget, solver.Hierarchy{RackOf: in.racks.RackOf, RackBudget: rackBudget})
	tr.end(sp)
	return in, err
}

// newEngines builds a fresh flat and hierarchical engine over in.
func newEngines(in scaleInputs, tr *tracer, parent int, op int64) (*diba.Engine, *diba.HierEngine, error) {
	sp := tr.begin("engine.new", parent, op)
	defer tr.end(sp)
	flat, err := diba.New(in.g, in.us, in.budget, diba.Config{})
	if err != nil {
		return nil, nil, err
	}
	hier, err := diba.NewHier(in.g, in.us, in.budget, in.racks, diba.Config{})
	if err != nil {
		return nil, nil, err
	}
	return flat, hier, nil
}

// probeScale times the n=10k set-up calls, each the median of
// scaleBuilds builds, and the serial and pooled step paths of the flat and
// 2-level engines.
func probeScale(l *ledger, tr *tracer, seed int64) error {
	var in scaleInputs
	for k := 0; k < scaleBuilds; k++ {
		op := tr.newOp()
		var err error
		if in, err = buildScale(seed, tr, 0, op); err != nil {
			return err
		}
		_, hier, err := newEngines(in, tr, 0, op)
		if err != nil {
			return err
		}
		hier.Close()
	}
	for _, s := range []struct{ name, span string }{
		{"topology.build_ms", "topology.build"},
		{"solver.optimal_ms", "solver.optimal"},
		{"solver.optimal_hier_ms", "solver.optimal_hier"},
		{"engine.new_ms", "engine.new"},
	} {
		l.set(s.name, median(durMs(tr.durations(s.span))), "ms")
	}

	flat, hier, err := newEngines(in, nil, 0, 0)
	if err != nil {
		return err
	}
	defer hier.Close()
	// Past the first rounds' transient, a round costs what it costs at
	// the operating point.
	for i := 0; i < stepChunk; i++ {
		flat.Step()
		hier.Step()
	}
	fs := stepCost(func() { flat.Step() })
	fp := stepCost(func() { flat.StepParallel(0) })
	hs := stepCost(func() { hier.Step() })
	hp := stepCost(func() { hier.StepParallel(0) })
	l.set("engine.flat_step_us", fs, "us")
	l.set("engine.flat_step_par_us", fp, "us")
	l.set("engine.hier_step_us", hs, "us")
	l.set("engine.hier_step_par_us", hp, "us")
	l.set("engine.par_speedup.flat", fs/fp, "ratio")
	l.set("engine.par_speedup.hier", hs/hp, "ratio")
	l.set("engine.step_allocs", allocsPer(stepChunk, func() { flat.StepAuto(); hier.StepAuto() })/2, "count")
	if err := flat.CheckInvariant(1e-6); err != nil {
		return fmt.Errorf("flat engine after step timing: %w", err)
	}
	if err := hier.CheckInvariant(1e-6); err != nil {
		return fmt.Errorf("hier engine after step timing: %w", err)
	}
	return nil
}

// stepCost returns the median per-call cost of step in microseconds over
// seven chunks of stepChunk calls.
func stepCost(step func()) float64 {
	var xs []float64
	for c := 0; c < 7; c++ {
		start := time.Now()
		for i := 0; i < stepChunk; i++ {
			step()
		}
		xs = append(xs, us(time.Since(start))/stepChunk)
	}
	return median(xs)
}

// allocsPer returns the heap allocations per call of f over n calls.
func allocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// fitCost returns the median cost in microseconds of one FitFromSweep, the
// refit every churn event performs.
func fitCost(seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	var xs []float64
	for k := 0; k < 51; k++ {
		bm := workload.HPC[rng.Intn(len(workload.HPC))].Perturb(rng, 0.05)
		start := time.Now()
		if _, err := workload.FitFromSweep(bm, workload.DefaultServer, 0, rng); err != nil {
			return 0, fmt.Errorf("fitting %s: %w", bm.Name, err)
		}
		xs = append(xs, us(time.Since(start)))
	}
	return median(xs), nil
}

// probeEstimate is the common-case round message: every field a
// fault-free broadcast carries, at full float precision.
var probeEstimate = diba.Message{From: 3, Round: 157, E: -0.6666666666666666, Degree: 2, P: 145.23456789012345}

// probeTransport measures the transport layer in-process: one-way message
// rate through a loopback pair of TCPTransports, and the binary codec's
// per-frame encode and decode cost.
func probeTransport(l *ledger) error {
	rate, err := pairRate(200 * time.Millisecond)
	if err != nil {
		return fmt.Errorf("tcp pair: %w", err)
	}
	l.set("tcp.pair_msgs_per_s", rate, "1/s")

	const frames = 1 << 16
	buf := make([]byte, 0, 64)
	var encs, decs []float64
	for c := 0; c < 7; c++ {
		start := time.Now()
		for i := 0; i < frames; i++ {
			buf = diba.EncodeTo(buf[:0], probeEstimate)
		}
		encs = append(encs, float64(time.Since(start).Nanoseconds())/frames)
		start = time.Now()
		for i := 0; i < frames; i++ {
			if _, _, err := diba.Decode(buf); err != nil {
				return err
			}
		}
		decs = append(decs, float64(time.Since(start).Nanoseconds())/frames)
	}
	m, _, err := diba.Decode(buf)
	if err != nil || m != probeEstimate {
		return fmt.Errorf("codec round trip: got %+v, %v", m, err)
	}
	l.set("wire.encode_ns", median(encs), "ns")
	l.set("wire.decode_ns", median(decs), "ns")
	return nil
}

// pairRate pushes estimate messages one way through a loopback pair of
// TCPTransports for about d and returns the delivered rate.
func pairRate(d time.Duration) (float64, error) {
	a, err := diba.NewTCPTransport(0, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := diba.NewTCPTransport(1, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	addrs := map[int]string{0: a.Addr(), 1: b.Addr()}
	if err := a.ConnectNeighbors([]int{1}, addrs, 5*time.Second); err != nil {
		return 0, err
	}
	if err := b.ConnectNeighbors([]int{0}, addrs, 5*time.Second); err != nil {
		return 0, err
	}
	// The receiver drains concurrently: the send queue and the inbox are
	// bounded, so a sender that got ahead of it would block.
	const batch = 4096
	m := probeEstimate
	sent := 0
	start := time.Now()
	for time.Since(start) < d {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < batch; i++ {
				if _, err := b.RecvTimeout(5 * time.Second); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < batch; i++ {
			m.Round++
			if err := a.Send(1, m); err != nil {
				<-done
				return 0, err
			}
		}
		if err := <-done; err != nil {
			return 0, err
		}
		sent += batch
	}
	return float64(sent) / time.Since(start).Seconds(), nil
}

// discardWriter is a reusable http.ResponseWriter that drops the body, so
// the serving probe measures the handler and not a recorder.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// serveRequests is how many requests each serving probe times.
const serveRequests = 1 << 15

// probeServe measures the control plane's handler in-process: a Server
// over a StatePub that an Engine publishes into, one publication per two
// requests (the ratio api-read's paced daemons see), with the socket,
// net/http's connection handling and the client taken out.
func probeServe(l *ledger, us []workload.Utility) error {
	en, err := diba.New(topology.Ring(len(us)), us, stepHighW*float64(len(us)), diba.Config{})
	if err != nil {
		return err
	}
	pub := new(diba.StatePub)
	en.PublishState(pub)
	en.Step()
	h := ctlplane.New(ctlplane.Config{Node: -1, Pub: pub, BudgetW: en.Budget()}).Handler()
	for _, ep := range []struct{ name, path string }{{"caps", "/v1/caps"}, {"metrics", "/metrics"}} {
		req, err := http.NewRequest(http.MethodGet, ep.path, nil)
		if err != nil {
			return err
		}
		w := &discardWriter{h: make(http.Header)}
		serve := func() {
			w.status = http.StatusOK
			h.ServeHTTP(w, req)
		}
		var busy time.Duration
		for i := 0; i < serveRequests/2; i++ {
			en.Step()
			t0 := time.Now()
			serve()
			serve()
			busy += time.Since(t0)
		}
		if w.status != http.StatusOK || w.n == 0 {
			return fmt.Errorf("in-process GET %s: status %d, %d bytes", ep.path, w.status, w.n)
		}
		both := allocsPer(serveRequests/2, func() { en.Step(); serve(); serve() })
		stepOnly := allocsPer(serveRequests/2, func() { en.Step() })
		l.set("ctlplane.serve_ns."+ep.name, float64(busy.Nanoseconds())/serveRequests, "ns")
		l.set("ctlplane.serve_allocs."+ep.name, (both-stepOnly)/2, "count")
	}
	return nil
}
