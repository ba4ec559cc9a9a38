package main

import (
	"math"
	"time"

	"powercap/internal/cluster"
	"powercap/internal/solver"
)

// sim-hour: one scenario-hour of the cluster simulator at small n, where
// the serial Engine.Step dominates and the parallel pool never runs.
const (
	hourN         = 200
	hourSeconds   = 3600
	hourRounds    = 100  // DiBA rounds per simulated second
	hourChurn     = 0.01 // per-server per-second workload churn
	hourHighW     = 175.0
	hourLowW      = 150.0
	hourToggleSec = 120
	// hourSetups is how many Sims a run constructs before each hour;
	// setup_s is the median over the run.
	hourSetups = 51
)

// hourEvents is the budget schedule: 150 W/node at the start (newHourSim),
// toggling between 175 and 150 W/node every hourToggleSec seconds.
func hourEvents() []cluster.BudgetEvent {
	var ev []cluster.BudgetEvent
	for t, low := hourToggleSec, false; t < hourSeconds; t, low = t+hourToggleSec, !low {
		w := hourHighW
		if low {
			w = hourLowW
		}
		ev = append(ev, cluster.BudgetEvent{AtSecond: t, Budget: w * hourN})
	}
	return ev
}

func newHourSim(seed int64) (*cluster.Sim, error) {
	return cluster.NewSim(cluster.Config{
		N:               hourN,
		Seed:            seed,
		RoundsPerSecond: hourRounds,
		ChurnPerSecond:  hourChurn,
	}, hourLowW*hourN)
}

// hourSummary is what one simulated hour produced.
type hourSummary struct {
	ratio float64 // mean Utility/OptUtility over the samples
	// overSeconds are seconds sampled with Power > Budget: the transient
	// after a budget cut that budget-step times on the live ring, which at
	// 100 rounds per second can outlast the second of the cut. They are a
	// property of the protocol, reported and checked to repeat exactly.
	overSeconds int
	// bad are samples out of order or holding a value that is not a
	// finite number: seconds the simulator failed to produce.
	bad     int
	churned int // workload churn events
	samples int
}

func summarizeHour(samples []cluster.Sample) hourSummary {
	s := hourSummary{samples: len(samples)}
	for i, x := range samples {
		if x.Second != i || !finite(x.Budget, x.Power, x.Utility, x.OptUtility) || x.OptUtility <= 0 {
			s.bad++
			continue
		}
		s.ratio += x.Utility / x.OptUtility
		if x.Power > x.Budget {
			s.overSeconds++
		}
		s.churned += x.Churned
	}
	s.ratio /= float64(len(samples) - s.bad)
	return s
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func runSimHour(b *bench) error {
	l, tr := b.led, b.tr
	events := hourEvents()
	var setups, secMs, secCPU, traced, untraced []float64
	var busy time.Duration
	var first hourSummary
	var sim *cluster.Sim
	deadline := time.Now().Add(b.seconds)
	var last time.Duration
	for pass := 0; b.another(pass, deadline, last); pass++ {
		on := b.trace && pass%2 == 0
		tr.setOn(on)
		op := tr.newOp()
		// Construction is cheap next to the hour: each pass builds
		// hourSetups Sims for setup_s and runs the last one, so the
		// set-up samples spread over the run like the hours.
		for k := 0; k < hourSetups; k++ {
			sp := tr.begin("cluster.new_sim", 0, op)
			start := time.Now()
			var err error
			if sim, err = newHourSim(b.seed); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			tr.end(sp)
		}

		cpu0 := selfCPU()
		sp := tr.begin("cluster.run", 0, op)
		start := time.Now()
		samples, err := sim.Run(hourSeconds, events)
		hour := time.Since(start)
		tr.end(sp)
		secCPU = append(secCPU, ms(selfCPU()-cpu0)/hourSeconds)
		if err != nil {
			return err
		}
		busy += hour
		last = hour
		// The operation is a simulated second; its latency is the hour's
		// wall time per simulated second.
		perSec := ms(hour) / hourSeconds
		secMs = append(secMs, perSec)
		if on {
			traced = append(traced, perSec)
		} else {
			untraced = append(untraced, perSec)
		}
		sum := summarizeHour(samples)
		if pass == 0 {
			first = sum
		} else if sum != first {
			l.incorrect("sim-hour pass %d differs from pass 0: %+v vs %+v", pass, sum, first)
		}
		if sum.samples != hourSeconds+1 {
			l.incorrect("sim-hour produced %d samples, want %d", sum.samples, hourSeconds+1)
		}
		// Each simulated second is one operation.
		l.ops(sum.samples, sum.bad)
	}
	tr.setOn(b.trace)
	l.note("sim-hour: n=%d, %d hours, %d churn events and %d seconds over budget per hour",
		hourN, len(secMs), first.churned, first.overSeconds)
	l.describe("sim_hour_s", "s", scaled(secMs, hourSeconds/1000.0))
	l.figure("utility_ratio", first.ratio, "ratio")
	l.figure("engine.rounds_per_s", float64(len(secMs)*hourSeconds*hourRounds)/busy.Seconds(), "1/s")
	l.figure("cluster.over_budget_seconds", float64(first.overSeconds), "count")
	if !b.trace {
		l.set("setup_s", median(setups), "s")
		l.set("latency_ms", median(secMs), "ms")
		l.set("cpu_ms", median(secCPU), "ms")
		return nil
	}
	l.set("op.tail_ms", tailOrMax(secMs), "ms")
	l.set("trace.overhead_pct", 100*(median(traced)/median(untraced)-1), "%")

	return reportShares(l, sim, b.seed)
}

// shareSeconds is the simulated time one layer-share sample covers.
const shareSeconds = 60

// reportShares reports what share of a simulated hour's wall time each
// layer takes. The machine's speed changes from one second to the next,
// so a unit cost timed apart from the hour does not divide into it
// reliably. Instead each sample times one simulated minute of the Sim the
// last hour left behind, then, right after it, the calls that minute made
// into each layer, one layer at a time: its engine rounds, its solver
// references and its workload refits. The shares are medians over the
// samples; cluster.rest_share is what is left (event loop, des, metric
// evaluation).
func reportShares(l *ledger, sim *cluster.Sim, seed int64) error {
	fitUs, err := fitCost(seed)
	if err != nil {
		return err
	}
	var step, opt, fit []float64
	for k := 0; k < 7; k++ {
		start := time.Now()
		samples, err := sim.Run(shareSeconds, nil)
		if err != nil {
			return err
		}
		minute := time.Since(start)
		churned := 0
		for _, x := range samples {
			churned += x.Churned
		}
		en := sim.Engine()
		start = time.Now()
		for i := 0; i < shareSeconds*hourRounds; i++ {
			en.Step()
		}
		step = append(step, time.Since(start).Seconds()/minute.Seconds())
		start = time.Now()
		for range samples {
			if _, err := solver.Optimal(sim.Utilities(), sim.Budget()); err != nil {
				return err
			}
		}
		opt = append(opt, time.Since(start).Seconds()/minute.Seconds())
		fit = append(fit, fitUs*float64(churned)/1e6/minute.Seconds())
	}
	stepShare, solverShare, fitShare := median(step), median(opt), median(fit)
	l.figure("engine.step_share", stepShare, "ratio")
	l.figure("solver.share", solverShare, "ratio")
	l.figure("workload.fit_share", fitShare, "ratio")
	l.figure("cluster.rest_share", 1-stepShare-solverShare-fitShare, "ratio")
	return nil
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
