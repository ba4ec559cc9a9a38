package main

import (
	"math"
	"testing"

	"powercap/internal/cluster"
)

// TestHourAccounting checks that seconds over budget are counted but do
// not fail, and that a sample the simulator got wrong does.
func TestHourAccounting(t *testing.T) {
	samples := []cluster.Sample{
		{Second: 0, Budget: 1000, Power: 990, Utility: 9, OptUtility: 10},
		{Second: 1, Budget: 900, Power: 950, Utility: 9, OptUtility: 10},
		{Second: 2, Budget: 900, Power: 901, Utility: 9, OptUtility: 10, Churned: 2},
		{Second: 3, Budget: 1000, Power: 999, Utility: 9, OptUtility: 10},
	}
	s := summarizeHour(samples)
	if s.overSeconds != 2 || s.bad != 0 || s.churned != 2 || s.samples != 4 || s.ratio != 0.9 {
		t.Fatalf("summary %+v, want 2 seconds over budget, none bad, 2 churned, ratio 0.9", s)
	}
	samples[1].Power = math.NaN()
	samples[3].Second = 7
	if s := summarizeHour(samples); s.bad != 2 || s.overSeconds != 1 {
		t.Fatalf("summary %+v, want 2 bad samples and 1 second over budget", s)
	}
}
