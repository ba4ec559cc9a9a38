package main

import (
	"reflect"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, 2, 17} {
		if a, b := budgetSchedule(seed, 8, 64), budgetSchedule(seed, 8, 64); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: two budget schedules differ", seed)
		}
		na, nb := nodeWorkloads(seed, 8), nodeWorkloads(seed, 8)
		if !reflect.DeepEqual(na, nb) {
			t.Errorf("seed %d: workload assignments differ", seed)
		}
		ua, err := nodeUtilities(seed, na)
		if err != nil {
			t.Fatal(err)
		}
		ub, err := nodeUtilities(seed, nb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ua, ub) {
			t.Errorf("seed %d: utilities differ", seed)
		}
	}
	if reflect.DeepEqual(budgetSchedule(1, 8, 64), budgetSchedule(2, 8, 64)) {
		t.Error("seeds 1 and 2 gave the same budget schedule")
	}
	u1, _ := nodeUtilities(1, ringWorkloads)
	u2, _ := nodeUtilities(2, ringWorkloads)
	if reflect.DeepEqual(u1, u2) {
		t.Error("seeds 1 and 2 gave the same characterization noise")
	}
}

func TestScheduleAlternatesDropsAndRaises(t *testing.T) {
	s := budgetSchedule(3, 8, 10)
	for i, st := range s {
		want := stepLowW * 8
		if i%2 == 1 {
			want = stepHighW * 8
		}
		if st.BudgetW != want {
			t.Errorf("step %d budget %v, want %v", i, st.BudgetW, want)
		}
		if st.Hold < 50e6 || st.Hold >= 100e6 {
			t.Errorf("step %d hold %v outside [50ms, 100ms)", i, st.Hold)
		}
	}
}

// Every seed's assignment is the fixed ring mix up to rotation and
// direction, so the protocol's work does not depend on the seed.
func TestNodeWorkloadsAreRingSymmetries(t *testing.T) {
	n := len(ringWorkloads)
	for seed := int64(0); seed < 50; seed++ {
		got := nodeWorkloads(seed, n)
		found := false
		for rot := 0; rot < n && !found; rot++ {
			for _, dir := range []int{1, -1} {
				match := true
				for i := range got {
					if got[i] != ringWorkloads[((rot+dir*i)%n+n)%n] {
						match = false
						break
					}
				}
				found = found || match
			}
		}
		if !found {
			t.Fatalf("seed %d: %v is not a rotation or reflection of %v", seed, got, ringWorkloads)
		}
	}
}
