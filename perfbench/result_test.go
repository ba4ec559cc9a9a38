package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		ok    bool
		pct   float64
		value float64
	}{
		{n: 10, ok: false},
		{n: 39, ok: false}, // p75 would leave 9 beyond
		{n: 40, ok: true, pct: 75, value: 30},
		{n: 99, ok: true, pct: 75, value: 75}, // p90 would leave 9
		{n: 100, ok: true, pct: 90, value: 90},
		{n: 1000, ok: true, pct: 99, value: 990},
		{n: 9999, ok: true, pct: 99, value: 9900}, // p99.9 would leave 9
		{n: 10000, ok: true, pct: 99.9, value: 9990},
		{n: 100000, ok: true, pct: 99.99, value: 99990},
	} {
		xs := series(tc.n)
		pct, v, ok := tail(xs)
		if ok != tc.ok || pct != tc.pct || v != tc.value {
			t.Errorf("n=%d: tail = p%g %g %v, want p%g %g %v", tc.n, pct, v, ok, tc.pct, tc.value, tc.ok)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if ok && beyond < tailMinBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, pct, beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := series(10)
	if m := median(xs); m != 5 {
		t.Errorf("median of 1..10 = %g, want 5", m)
	}
	if q := quantile(xs, 0.99); q != 10 {
		t.Errorf("p99 of 1..10 = %g, want 10", q)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func decode(t *testing.T, l *ledger) result {
	t.Helper()
	var buf bytes.Buffer
	if err := l.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
	}
	return r
}

func TestLedgerFailureAccounting(t *testing.T) {
	l := newLedger()
	l.op("")
	l.op("POST /v1/budget: 500")
	l.ops(3601, 2)
	l.set("x_ms", 1.5, "ms")
	r := decode(t, l)
	if r.Attempted != 3603 || r.Failed != 3 || !r.Correct {
		t.Fatalf("result %+v, want 3603 attempted, 3 failed, correct", r)
	}
	if m := r.Metrics["x_ms"]; m.Value != 1.5 || m.Unit != "ms" {
		t.Fatalf("metric %+v", m)
	}

	// A failed output check makes the run incorrect whatever the counts.
	l.incorrect("node 3 reports budget %v", 1200.0)
	if r := decode(t, l); r.Correct {
		t.Fatal("an incorrect output must clear correct")
	}
	// So does a metric with no finite value, which is left out.
	l2 := newLedger()
	l2.op("")
	l2.set("ratio", math.NaN(), "ratio")
	if r := decode(t, l2); r.Correct || len(r.Metrics) != 0 {
		t.Fatalf("NaN metric: %+v", r)
	}
	// A run that attempted nothing is not a result.
	if r := decode(t, newLedger()); r.Correct {
		t.Fatal("nothing attempted must not be correct")
	}
}

// TestManifestMatchesReports checks that BENCHMARK.json declares exactly
// the metrics, in the units, that the runs report.
func TestManifestMatchesReports(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		key      string
		declared []struct{ Name, Unit string }
		reported map[string]string
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(set.declared) != len(set.reported) {
			t.Errorf("%s declares %d metrics, runs report %d", set.key, len(set.declared), len(set.reported))
		}
		for _, d := range set.declared {
			if unit, ok := set.reported[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: %s in %s is not reported in that unit (reported: %q)", set.key, d.Name, d.Unit, unit)
			}
		}
	}
}

func TestLedgerConforms(t *testing.T) {
	l := newLedger()
	l.set("a_ms", 1, "ms")
	if err := l.conforms(map[string]string{"a_ms": "ms"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []map[string]string{
		{"a_ms": "s"},              // wrong unit
		{"a_ms": "ms", "b_s": "s"}, // missing metric
		{},                         // undeclared metric
	} {
		if l.conforms(want) == nil {
			t.Errorf("conforms(%v) accepted metrics %v", want, l.metrics)
		}
	}
}

func TestAnotherPass(t *testing.T) {
	b := &bench{}
	past := time.Now().Add(-time.Second)
	if !b.another(0, past, 0) {
		t.Error("a run must make one pass")
	}
	if b.another(1, past, time.Second) {
		t.Error("an untraced run past its deadline must stop after one pass")
	}
	b.trace = true
	if !b.another(1, past, time.Second) || b.another(2, past, time.Second) {
		t.Error("a traced run must make exactly two passes past its deadline")
	}
	soon := time.Now().Add(4 * time.Second)
	if !b.another(5, soon, 6*time.Second) || b.another(5, soon, 10*time.Second) {
		t.Error("another pass starts only when half of it fits")
	}
}
