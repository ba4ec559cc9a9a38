package main

import (
	"testing"
	"time"

	"powercap/internal/solver"
	"powercap/internal/workload"
)

// syntheticRing is a 4-node cluster whose caps the tests move by hand.
func syntheticRing(t *testing.T) []workload.Utility {
	t.Helper()
	us, err := nodeUtilities(1, []string{"EP", "CG", "LU", "IS"})
	if err != nil {
		t.Fatal(err)
	}
	return us
}

// optimum returns the optimal caps and utility under budget.
func optimum(t *testing.T, us []workload.Utility, budget float64) ([]float64, float64) {
	t.Helper()
	r, err := solver.Optimal(us, budget)
	if err != nil {
		t.Fatal(err)
	}
	return r.Alloc, r.Utility
}

// blend returns the caps a fraction f of the way from a to b.
func blend(a, b []float64, f float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + f*(b[i]-a[i])
	}
	return out
}

func sweepOf(at time.Duration, round int, caps []float64, budgets ...float64) sweep {
	s := sweep{At: at}
	for i, c := range caps {
		s.Views = append(s.Views, capsView{Node: i, Round: round, CapW: c, BudgetW: budgets[i]})
	}
	return s
}

func fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// A drop is safe once Σ cap ≤ B and settled once the caps are near the
// new optimum, so safe comes first; neither happens while the caps still
// sit at the old optimum.
func TestDetectorDropSafeBeforeSettle(t *testing.T) {
	us := syntheticRing(t)
	hi, lo := stepHighW*4, stepLowW*4
	from, _ := optimum(t, us, hi)
	to, optU := optimum(t, us, lo)
	d := newDetector(lo, us, optU)
	newB := fill(4, lo)

	if d.observe(sweepOf(1*time.Millisecond, 100, from, newB...)) || d.safe {
		t.Fatal("caps at the old optimum are neither safe nor settled under the cut")
	}
	// Uniformly scaled down to exactly the new budget: safe, but far from
	// the new optimum's split.
	scaled := make([]float64, 4)
	for i := range from {
		scaled[i] = from[i] * lo / hi
	}
	var sumU float64
	for i, c := range scaled {
		sumU += us[i].Value(c)
	}
	if d.observe(sweepOf(8*time.Millisecond, 120, scaled, newB...)) {
		t.Fatalf("settled at utility %.4f against optimum %.4f", sumU, optU)
	}
	if !d.safe || d.safeAt != 8*time.Millisecond || d.safeRound != 120 {
		t.Fatalf("safe = %v at %v round %v, want safe at 8ms round 120", d.safe, d.safeAt, d.safeRound)
	}
	if !d.observe(sweepOf(100*time.Millisecond, 500, to, newB...)) {
		t.Fatal("caps at the new optimum must settle")
	}
	if d.settleAt != 100*time.Millisecond || d.settleRnd != 500 || d.safeAt >= d.settleAt {
		t.Fatalf("safe at %v, settle at %v round %v", d.safeAt, d.settleAt, d.settleRnd)
	}
	// Later sweeps do not move either time.
	d.observe(sweepOf(200*time.Millisecond, 900, to, newB...))
	if d.safeAt != 8*time.Millisecond || d.settleAt != 100*time.Millisecond {
		t.Fatal("a settled step's times changed")
	}
}

// A raise is safe at once; it settles only when every daemon reports the
// new budget and the utility reaches the new optimum.
func TestDetectorRaise(t *testing.T) {
	us := syntheticRing(t)
	hi, lo := stepHighW*4, stepLowW*4
	from, _ := optimum(t, us, lo)
	to, optU := optimum(t, us, hi)
	d := newDetector(hi, us, optU)

	if d.observe(sweepOf(2*time.Millisecond, 10, from, lo, lo, lo, lo)) {
		t.Fatal("settled before any daemon saw the raise")
	}
	if !d.safe || d.safeAt != 2*time.Millisecond {
		t.Fatal("a raise is safe from the first sweep")
	}
	if d.observe(sweepOf(5*time.Millisecond, 20, to, hi, hi, lo, hi)) {
		t.Fatal("settled while node 2 still reports the old budget")
	}
	if d.observe(sweepOf(6*time.Millisecond, 22, blend(from, to, 0.02), hi, hi, hi, hi)) {
		t.Fatal("settled with the caps still near the old optimum")
	}
	if !d.observe(sweepOf(9*time.Millisecond, 30, blend(from, to, 0.995), hi, hi, hi, hi)) {
		t.Fatal("caps next to the new optimum must settle")
	}
	if d.settleAt != 9*time.Millisecond {
		t.Fatalf("settle at %v, want 9ms", d.settleAt)
	}
}
