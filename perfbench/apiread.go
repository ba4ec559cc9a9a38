package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// api-read: 4 dibad daemons paced at one round per millisecond serve a
// closed loop of reads from 2 clients, with budget writes interleaved.
const (
	apiNodes   = 4
	apiPace    = time.Millisecond
	apiClients = 2
	apiRings   = 3
	// apiWriteEvery makes every apiWriteEvery-th operation of client 0 a
	// write cycle: one POST /v1/budget to each daemon.
	apiWriteEvery = 50
	// apiWindow is the length of the alternating traced and untraced
	// windows of a traced run.
	apiWindow = 250 * time.Millisecond
	// visibleLimit bounds how long a written budget may take to show on
	// every daemon.
	visibleLimit = 2 * time.Second
)

// endpoint kinds of the read mix, 3:1:1.
const (
	kCaps = iota
	kHealth
	kMetrics
	kBudget
	kinds
)

var kindNames = [kinds]string{"caps", "health", "metrics", "budget_post"}
var readMix = []int{kCaps, kHealth, kCaps, kMetrics, kCaps}

// apiSample is one completed request.
type apiSample struct {
	kind   int
	lat    time.Duration
	bytes  int
	traced bool
}

// apiClient is one closed-loop client with its own keep-alive connections.
type apiClient struct {
	id      int
	c       *ctl
	ring    *ring
	b       *bench
	start   time.Time
	samples []apiSample
	visible []float64 // write-to-visible times, ms (traced run)
	// schedule supplies the budgets client 0 writes; writes counts them
	// across the run's rings.
	schedule []budgetStep
	writes   int
}

func runAPIRead(b *bench) error {
	l := b.led
	c := newCtl()
	defer c.close()
	spec := ringSpec{
		seed:          b.seed,
		budgetW:       stepHighW * apiNodes,
		names:         nodeWorkloads(b.seed, apiNodes),
		roundInterval: apiPace,
	}
	schedule := budgetSchedule(b.seed, apiNodes, 1<<16)
	writes := 0
	var samples []apiSample
	var visible, rps []float64
	// serveCPU is the CPU time the daemons spent while the clients ran:
	// serving and their paced rounds.
	var elapsed, serveCPU time.Duration
	err := runRings(b, c, spec, apiRings, func(r *ring, until time.Time) error {
		before, err := c.sweep(r, time.Now(), nil, 0, 0)
		if err != nil {
			return err
		}
		cpu0, err := cpuOf(r.procs)
		if err != nil {
			return err
		}
		clients := make([]*apiClient, apiClients)
		var wg sync.WaitGroup
		start := time.Now()
		for w := range clients {
			cl := &apiClient{id: w, c: newCtl(), ring: r, b: b, start: start, schedule: schedule, writes: writes}
			clients[w] = cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cl.c.close()
				cl.loop(until)
			}()
		}
		wg.Wait()
		elapsed += time.Since(start)
		cpu1, err := cpuOf(r.procs)
		if err != nil {
			return err
		}
		serveCPU += cpu1 - cpu0
		writes = clients[0].writes
		after, err := c.sweep(r, start, nil, 0, 0)
		if err != nil {
			return err
		}
		var rounds float64
		for i := range after.Views {
			rounds += float64(after.Views[i].Round - before.Views[i].Round)
		}
		rps = append(rps, rounds/float64(apiNodes)/after.At.Seconds())
		for _, cl := range clients {
			samples = append(samples, cl.samples...)
			visible = append(visible, cl.visible...)
		}
		// Every daemon must end up holding the last budget written.
		if _, err := c.waitVisible(r, r.budget, time.Now()); err != nil {
			l.incorrect("after the run: %v", err)
		}
		return nil
	})
	if err != nil {
		return err
	}

	var all, traced, untraced []float64
	perKind := make([][]float64, kinds)
	bytes := make([]float64, kinds)
	for _, s := range samples {
		x := float64(s.lat) / float64(time.Microsecond)
		all = append(all, x)
		perKind[s.kind] = append(perKind[s.kind], x)
		bytes[s.kind] += float64(s.bytes)
		if s.traced {
			traced = append(traced, x)
		} else {
			untraced = append(untraced, x)
		}
	}
	l.note("api-read: %d daemons paced at %v, %d rings, %d clients, %d requests in %.2f s (%d budget posts)",
		apiNodes, apiPace, apiRings, apiClients, len(all), elapsed.Seconds(), len(perKind[kBudget]))
	l.describe("api_us", "us", all)
	l.figure("api_rps", float64(len(all))/elapsed.Seconds(), "1/s")
	l.figure("agent.rounds_per_s", median(rps), "1/s")
	if !b.trace {
		// The operation is a request; its CPU time is the daemons' over
		// the run, shared out over the requests.
		l.set("latency_ms", median(all)/1000, "ms")
		l.set("cpu_ms", ms(serveCPU)/float64(len(all)), "ms")
		return nil
	}

	l.set("op.tail_ms", tailOrMax(all)/1000, "ms")
	l.set("trace.overhead_pct", 100*(median(traced)/median(untraced)-1), "%")
	for k := 0; k < kinds; k++ {
		l.figure("ctlplane."+kindNames[k]+"_us", median(perKind[k]), "us")
		if k != kBudget {
			l.figure("ctlplane.resp_bytes."+kindNames[k], bytes[k]/float64(len(perKind[k])), "B")
		}
	}
	l.figure("ctlplane.write_visible_ms", median(visible), "ms")
	return nil
}

// loop runs the client's closed loop until deadline. Client 0 alone
// writes, so ring.budget needs no lock: the caller reads it only after every
// client has returned.
func (cl *apiClient) loop(deadline time.Time) {
	l := cl.b.led
	for k := 0; time.Now().Before(deadline); k++ {
		// A traced run records spans in alternate windows only.
		tr := cl.b.tr
		traced := tr != nil && (time.Since(cl.start)/apiWindow)%2 == 0
		if !traced {
			tr = nil
		}
		if cl.id == 0 && k%apiWriteEvery == apiWriteEvery-1 {
			budget := cl.schedule[cl.writes%len(cl.schedule)].BudgetW
			cl.writes++
			cl.ring.budget = budget
			cl.writeCycle(budget, tr, traced)
			continue
		}
		kind := readMix[k%len(readMix)]
		node := (k + cl.id) % apiNodes
		op := tr.newOp()
		sp := tr.begin("ctlplane."+kindNames[kind], 0, op)
		t0 := time.Now()
		n, err := cl.read(kind, node)
		lat := time.Since(t0)
		tr.end(sp)
		l.op(errText(err))
		if err == nil {
			cl.samples = append(cl.samples, apiSample{kind: kind, lat: lat, bytes: n, traced: traced})
		}
	}
}

// writeCycle posts budget to every daemon, timing each POST as one
// request. In a traced run it then waits until every daemon shows the new
// budget.
func (cl *apiClient) writeCycle(budget float64, tr *tracer, traced bool) {
	l := cl.b.led
	op := tr.newOp()
	first := time.Now()
	for _, base := range cl.ring.api {
		sp := tr.begin("ctlplane.budget_post", 0, op)
		t0 := time.Now()
		err := cl.c.postBudget(base, budget)
		lat := time.Since(t0)
		tr.end(sp)
		l.op(errText(err))
		if err == nil {
			cl.samples = append(cl.samples, apiSample{kind: kBudget, lat: lat, traced: traced})
		}
	}
	if cl.b.trace {
		ms, err := cl.c.waitVisible(cl.ring, budget, first)
		l.op(errText(err))
		if err == nil {
			cl.visible = append(cl.visible, ms)
		}
	}
}

// read performs one request of kind against node and checks its body.
func (cl *apiClient) read(kind, node int) (int, error) {
	base := cl.ring.api[node]
	switch kind {
	case kCaps:
		body, err := cl.c.get(base + "/v1/caps")
		if err != nil {
			return 0, err
		}
		var v capsView
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, fmt.Errorf("node %d /v1/caps: %w", node, err)
		}
		if v.Node != node || len(v.Dead) > 0 {
			return 0, fmt.Errorf("node %d /v1/caps answered node %d, dead %v", node, v.Node, v.Dead)
		}
		return len(body), nil
	case kHealth:
		body, err := cl.c.get(base + "/v1/health")
		if err != nil {
			return 0, err
		}
		var h struct {
			Node  int               `json:"node"`
			Peers []json.RawMessage `json:"peers"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			return 0, fmt.Errorf("node %d /v1/health: %w", node, err)
		}
		if h.Node != node || len(h.Peers) == 0 {
			return 0, fmt.Errorf("node %d /v1/health answered node %d with %d peers", node, h.Node, len(h.Peers))
		}
		return len(body), nil
	default:
		body, err := cl.c.get(base + "/metrics")
		if err != nil {
			return 0, err
		}
		if _, err := parseMetrics(body, "powercap_round", "powercap_budget_watts"); err != nil {
			return 0, fmt.Errorf("node %d /metrics: %w", node, err)
		}
		return len(body), nil
	}
}

// waitVisible polls every daemon's /v1/caps until all report budget and
// returns the time since t0 in milliseconds.
func (c *ctl) waitVisible(r *ring, budget float64, t0 time.Time) (float64, error) {
	for {
		s, err := c.sweep(r, t0, nil, 0, 0)
		if err != nil {
			return 0, err
		}
		all := true
		for _, v := range s.Views {
			all = all && v.BudgetW == budget
		}
		if all {
			return ms(s.At), nil
		}
		if s.At > visibleLimit {
			return 0, fmt.Errorf("budget %.0f W not visible on every daemon after %v", budget, s.At.Round(time.Millisecond))
		}
	}
}
