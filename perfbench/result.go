package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output: the operation accounting
// and the metrics of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, with
// their units. Every workload reports all of them: an untraced run exactly
// the first set, a traced run exactly the second. Figures that only one
// workload has are printed as notes beside them.
var (
	endToEnd = map[string]string{
		"setup_s":    "s",
		"latency_ms": "ms",
		"cpu_ms":     "ms",
	}
	perLayer = map[string]string{
		"trace.overhead_pct":            "%",
		"op.tail_ms":                    "ms",
		"wire.encode_ns":                "ns",
		"wire.decode_ns":                "ns",
		"tcp.pair_msgs_per_s":           "1/s",
		"ctlplane.serve_ns.caps":        "ns",
		"ctlplane.serve_ns.metrics":     "ns",
		"ctlplane.serve_allocs.caps":    "count",
		"ctlplane.serve_allocs.metrics": "count",
		"engine.step_us":                "us",
		"solver.optimal_us":             "us",
		"workload.fit_us":               "us",
		"topology.build_ms":             "ms",
		"solver.optimal_ms":             "ms",
		"solver.optimal_hier_ms":        "ms",
		"engine.new_ms":                 "ms",
		"engine.flat_step_us":           "us",
		"engine.flat_step_par_us":       "us",
		"engine.hier_step_us":           "us",
		"engine.hier_step_par_us":       "us",
		"engine.par_speedup.flat":       "ratio",
		"engine.par_speedup.hier":       "ratio",
		"engine.step_allocs":            "count",
	}
)

// ledger accumulates a run's operations, failures, metrics and the
// human-readable notes printed before the result line. Workload code may
// call it from several goroutines.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     []string
	metrics   map[string]metric
	notes     []string
}

func newLedger() *ledger { return &ledger{metrics: make(map[string]metric)} }

// conforms returns an error unless the recorded metrics are exactly want,
// each in its unit.
func (l *ledger) conforms(want map[string]string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, unit := range want {
		m, ok := l.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s in %s, want %s", name, m.Unit, unit)
		}
	}
	for name := range l.metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared for this run", name)
		}
	}
	return nil
}

// op records one attempted operation; a non-empty why marks it failed.
func (l *ledger) op(why string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if why != "" {
		l.failed++
		if l.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: failed operation: %s\n", why)
		}
	}
}

// ops records attempted operations of which failed failed, all at once.
func (l *ledger) ops(attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted += attempted
	l.failed += failed
}

// incorrect records an output check that failed; it makes the run's
// result incorrect regardless of the operation counts.
func (l *ledger) incorrect(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wrong = append(l.wrong, msg)
}

// set records a metric. A value that is not a finite number (a ratio over
// an empty series) cannot be reported and makes the result incorrect.
func (l *ledger) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		l.incorrect("%s: no finite value (%v)", name, value)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics[name] = metric{Value: value, Unit: unit}
}

// figure notes a named figure that is not one of the run's metrics, in the
// same layout as the metrics table.
func (l *ledger) figure(name string, value float64, unit string) {
	l.note("%-34s %14.6g %s", name, value, unit)
}

// note adds a line to the report printed before the result.
func (l *ledger) note(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, every metric by name with its unit, and the
// JSON result as the last line.
func (l *ledger) write(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range l.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(l.metrics))
	for name := range l.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := l.metrics[name]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	res := result{
		Correct:   len(l.wrong) == 0 && l.attempted > 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   l.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, or NaN
// for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := rank(q, len(xs)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// rank is the 1-based nearest rank of quantile q among n samples. The
// epsilon keeps q·n that is whole in exact arithmetic (0.9999·100000) from
// rounding up a rank.
func rank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder are the percentiles a tail value may be reported at.
var tailLadder = []float64{75, 90, 95, 99, 99.9, 99.99}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail returns the highest percentile of tailLadder that has at least
// tailMinBeyond samples beyond it, and the sample at that percentile. ok is
// false when there are too few samples for even the lowest rung.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if n-rank(p/100, n) >= tailMinBeyond {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// describe notes a series' median, its tail percentile and the sample
// count.
func (l *ledger) describe(name, unit string, xs []float64) {
	if len(xs) == 0 {
		l.note("%s: no samples", name)
		return
	}
	med := median(xs)
	if p, v, ok := tail(xs); ok {
		l.note("%s: median %.4g %s, p%g %.4g %s (n=%d)", name, med, unit, p, v, unit, len(xs))
	} else {
		l.note("%s: median %.4g %s (n=%d, too few samples for a tail)", name, med, unit, len(xs))
	}
}

// tailOrMax is the series' tail value by the tail rule, or its largest
// sample when there are too few samples for the rule.
func tailOrMax(xs []float64) float64 {
	if _, v, ok := tail(xs); ok {
		return v
	}
	return quantile(xs, 1)
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
