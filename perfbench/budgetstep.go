package main

import (
	"fmt"
	"time"

	"powercap/internal/workload"
)

// budget-step: 8 unpaced dibad daemons in a flat ring; the benchmark
// alternates cluster budget drops and raises through every daemon's
// POST /v1/budget and polls /v1/caps until each step settles.
const (
	stepNodes = 8
	// stepRings is how many clusters a run starts and measures in turn.
	stepRings = 3
	// stepLimit fails a step that has not settled by then (a drop settles
	// in 0.3-0.4 s on a 2-vCPU machine).
	stepLimit = 5 * time.Second
	// readyLimit bounds daemon start-up and the first settle.
	readyLimit = 30 * time.Second
)

// launch starts a cluster from spec and waits until it has settled under
// its initial budget; setup time is measured from launch to that settle.
func launch(b *bench, c *ctl, spec ringSpec, us []workload.Utility, tag string) (*ring, time.Duration, error) {
	op := b.tr.newOp()
	sp := b.tr.begin("setup", 0, op)
	defer b.tr.end(sp)
	optU, err := optimalUtility(us, spec.budgetW)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	r, err := startRing(b, spec, tag)
	if err != nil {
		return nil, 0, err
	}
	if err := c.waitReady(r, readyLimit); err != nil {
		r.stop()
		return nil, 0, err
	}
	base, err := c.sweep(r, start, b.tr, sp, op)
	if err != nil {
		r.stop()
		return nil, 0, err
	}
	if err := c.waitSettled(r, newDetector(spec.budgetW, us, optU), base, start, readyLimit, b.tr, sp, op); err != nil {
		r.stop()
		return nil, 0, fmt.Errorf("first settle: %w", err)
	}
	r.us, r.budget = us, spec.budgetW
	return r, time.Since(start), nil
}

// noStrays fails loudly when a dibad from an earlier run is still alive:
// it would share the CPUs and skew every figure.
func noStrays() error {
	pids, err := liveDibads()
	if err != nil {
		return fmt.Errorf("listing processes: %w", err)
	}
	if len(pids) > 0 {
		return fmt.Errorf("dibad processes from an earlier run are still alive (pids %v); stop them first", pids)
	}
	return nil
}

// runRings measures on rings freshly launched clusters in turn, each until
// its equal share of the run has passed, and reports setup_s as the median
// launch-to-first-settle time. Spreading a run over several clusters keeps
// one cluster's placement of its daemons on the CPUs from setting the
// whole run's figure, and gives setup_s several samples.
func runRings(b *bench, c *ctl, spec ringSpec, rings int, measure func(r *ring, until time.Time) error) error {
	if err := noStrays(); err != nil {
		return err
	}
	us, err := nodeUtilities(spec.seed, spec.names)
	if err != nil {
		return err
	}
	var setups []float64
	start := time.Now()
	for k := 0; k < rings; k++ {
		r, d, err := launch(b, c, spec, us, fmt.Sprintf("ring-%d", k))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		err = measure(r, start.Add(b.seconds*time.Duration(k+1)/time.Duration(rings)))
		r.stop()
		if err != nil {
			return err
		}
	}
	if !b.trace {
		b.led.set("setup_s", median(setups), "s")
	}
	return nil
}

// stepOutcome is one measured budget step.
type stepOutcome struct {
	drop         bool
	safe, settle time.Duration
	safeRounds   float64
	settleRounds float64
	// roundsFor is the time the daemons took for settleRounds: from the
	// sweep before the first POST to the settling sweep.
	roundsFor time.Duration
	// cpu is the CPU time the daemons spent from the first POST to the
	// settling sweep.
	cpu time.Duration
}

func runBudgetStep(b *bench) error {
	l, tr := b.led, b.tr
	c := newCtl()
	defer c.close()
	spec := ringSpec{
		seed:    b.seed,
		budgetW: stepHighW * stepNodes,
		names:   nodeWorkloads(b.seed, stepNodes),
	}
	schedule := budgetSchedule(b.seed, stepNodes, 1<<16)
	next := 0
	var outs []stepOutcome
	var tracedDrops, untracedDrops, srtts []float64
	var wire []wireCounters // per-daemon deltas summed over the rings
	err := runRings(b, c, spec, stepRings, func(r *ring, until time.Time) error {
		var before []wireCounters
		if b.trace {
			var err error
			if before, err = scrapeWire(c, r); err != nil {
				return err
			}
		}
		for ; time.Now().Before(until); next++ {
			st := schedule[next]
			// The traced run records every other drop/raise pair; the
			// difference in settle time is the tracing overhead.
			on := b.trace && (next/2)%2 == 0
			tr.setOn(on)
			out, err := r.step(c, st, tr)
			l.op(errText(err))
			if err != nil {
				continue
			}
			outs = append(outs, out)
			if out.drop && on {
				tracedDrops = append(tracedDrops, ms(out.settle))
			} else if out.drop {
				untracedDrops = append(untracedDrops, ms(out.settle))
			}
			time.Sleep(st.Hold)
		}
		tr.setOn(b.trace)

		// After the last step every daemon must report the budget it was
		// last given.
		final, err := c.sweep(r, time.Now(), nil, 0, 0)
		if err != nil {
			l.incorrect("final sweep: %v", err)
		} else {
			for i, v := range final.Views {
				if v.BudgetW != r.budget {
					l.incorrect("node %d reports budget %.2f W after the last step, want %.2f W", i, v.BudgetW, r.budget)
				}
			}
		}
		if !b.trace {
			return nil
		}
		after, err := scrapeWire(c, r)
		if err != nil {
			return err
		}
		if wire == nil {
			wire = make([]wireCounters, len(after))
		}
		for i := range after {
			wire[i].add(after[i], before[i])
		}
		srtt, err := peerSRTT(c, r)
		srtts = append(srtts, srtt)
		return err
	})
	if err != nil {
		return err
	}

	var dropSettle, dropSafe, raiseSettle, dropSettleR, dropSafeR, dropCPU []float64
	var dropRun time.Duration
	var dropRounds float64
	for _, o := range outs {
		if o.drop {
			dropSettle = append(dropSettle, ms(o.settle))
			dropSafe = append(dropSafe, ms(o.safe))
			dropSettleR = append(dropSettleR, o.settleRounds)
			dropSafeR = append(dropSafeR, o.safeRounds)
			dropCPU = append(dropCPU, ms(o.cpu))
			dropRounds += o.settleRounds
			dropRun += o.roundsFor
		} else {
			raiseSettle = append(raiseSettle, ms(o.settle))
		}
	}
	l.note("budget-step: %d daemons, %d rings, %d steps, workloads %v", stepNodes, stepRings, len(outs), spec.names)
	l.describe("drop_settle_ms", "ms", dropSettle)
	l.describe("drop_safe_ms", "ms", dropSafe)
	l.describe("raise_settle_ms", "ms", raiseSettle)
	// The round rate is taken over every drop's settle together.
	rps := dropRounds / dropRun.Seconds()
	l.figure("agent.rounds_per_s", rps, "1/s")
	l.figure("agent.cpu_us_per_round", 1000*sum(dropCPU)/dropRounds, "us")
	l.figure("agent.drop_settle_rounds", median(dropSettleR), "count")
	l.figure("agent.drop_safe_rounds", median(dropSafeR), "count")
	if !b.trace {
		// The operation is a budget step; its latency is that of the
		// drops, the steps an operator waits on.
		l.set("latency_ms", median(dropSettle), "ms")
		l.set("cpu_ms", median(dropCPU), "ms")
		return nil
	}

	l.set("op.tail_ms", tailOrMax(dropSettle), "ms")
	l.set("trace.overhead_pct", 100*(median(tracedDrops)/median(untracedDrops)-1), "%")
	l.figure("ctlplane.post_all_ms", median(durMs(tr.durations("ctlplane.post_all"))), "ms")
	l.figure("ctlplane.poll_us", median(durUs(tr.durations("ctlplane.poll"))), "us")
	l.figure("ctlplane.poll_sweep_us", median(durUs(tr.durations("ctlplane.poll_sweep"))), "us")
	reportWire(l, wire)
	l.figure("tcp.srtt_us", median(srtts), "us")
	return nil
}

// step applies one budget change and follows it until it settles.
func (r *ring) step(c *ctl, st budgetStep, tr *tracer) (stepOutcome, error) {
	out := stepOutcome{drop: st.BudgetW < r.budget}
	optU, err := optimalUtility(r.us, st.BudgetW)
	if err != nil {
		return out, err
	}
	op := tr.newOp()
	name := "step.raise"
	if out.drop {
		name = "step.drop"
	}
	sp := tr.begin(name, 0, op)
	defer tr.end(sp)
	baseStart := time.Now()
	base, err := c.sweep(r, baseStart, tr, sp, op)
	if err != nil {
		return out, err
	}
	baseEnd := baseStart.Add(base.At)
	cpu0, err := cpuOf(r.procs)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	r.budget = st.BudgetW
	if err := c.postAll(r, st.BudgetW, tr, sp, op); err != nil {
		return out, err
	}
	d := newDetector(st.BudgetW, r.us, optU)
	if err := c.waitSettled(r, d, base, t0, stepLimit, tr, sp, op); err != nil {
		return out, err
	}
	cpu1, err := cpuOf(r.procs)
	if err != nil {
		return out, err
	}
	out.cpu = cpu1 - cpu0
	out.safe, out.settle = d.safeAt, d.settleAt
	out.safeRounds = d.safeRound - meanRound(base)
	out.settleRounds = d.settleRnd - meanRound(base)
	out.roundsFor = t0.Add(d.settleAt).Sub(baseEnd)
	return out, nil
}

func meanRound(s sweep) float64 {
	var r float64
	for _, v := range s.Views {
		r += float64(v.Round)
	}
	return r / float64(len(s.Views))
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
