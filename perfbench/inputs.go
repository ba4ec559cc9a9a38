package main

import (
	"fmt"
	"math/rand"
	"time"

	"powercap/internal/solver"
	"powercap/internal/workload"
)

// Every input of a run derives from its --seed: the per-node Table 4.1
// workloads, the daemons' own -seed (their characterization sweep noise),
// the budget schedule and the simulator seeds. The program only ever sees
// the generated inputs.

// ringWorkloads is the live clusters' Table 4.1 mix in ring order,
// alternating compute-bound and memory-bound benchmarks. The mix is fixed
// because the settle time depends strongly on it (50-300 ms across random
// draws of 8), which would drown any change between two commits.
var ringWorkloads = []string{"EP", "CG", "LU", "IS", "HPL", "FT", "SP", "MG"}

// nodeWorkloads returns the benchmark each of n nodes runs: the seed picks
// one rotation and direction of the ring mix. Every choice is the same ring
// up to symmetry, so the protocol does the same work under every seed;
// the daemons' characterization noise (seeded by -seed) still differs.
func nodeWorkloads(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	rot, dir := rng.Intn(n), 1-2*rng.Intn(2)
	out := make([]string, n)
	for i := range out {
		out[i] = ringWorkloads[((rot+dir*i)%n+n)%n%len(ringWorkloads)]
	}
	return out
}

// nodeUtilities rebuilds the utility each daemon fits at start-up: dibad
// characterizes its workload with a 1%-noise DVFS sweep seeded by -seed
// plus its id, on the default server.
func nodeUtilities(seed int64, names []string) ([]workload.Utility, error) {
	out := make([]workload.Utility, len(names))
	for i, name := range names {
		bm, err := workload.ByName(workload.HPC, name)
		if err != nil {
			return nil, err
		}
		q, err := workload.FitFromSweep(bm, workload.DefaultServer, 0.01, rand.New(rand.NewSource(seed+int64(i))))
		if err != nil {
			return nil, fmt.Errorf("fitting node %d (%s): %w", i, name, err)
		}
		out[i] = q
	}
	return out, nil
}

// budgetStep is one operator budget change and how long the benchmark holds
// it after the cluster settles before the next change.
type budgetStep struct {
	BudgetW float64
	Hold    time.Duration
}

// Step budgets, per node: drops go to stepLowW, raises back to stepHighW.
const (
	stepLowW  = 150.0
	stepHighW = 185.0
)

// budgetSchedule returns k alternating drops and raises for n nodes,
// starting with a drop. Each hold is drawn from [50, 100) ms so that the
// next change lands at an arbitrary point of the round cycle.
func budgetSchedule(seed int64, n, k int) []budgetStep {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]budgetStep, k)
	for i := range out {
		w := stepLowW
		if i%2 == 1 {
			w = stepHighW
		}
		out[i] = budgetStep{
			BudgetW: w * float64(n),
			Hold:    50*time.Millisecond + time.Duration(rng.Int63n(int64(50*time.Millisecond))),
		}
	}
	return out
}

// optimalUtility is the centralized optimum Σ r_i(p_i*) under budget
// (Eq. 4.11's reference).
func optimalUtility(us []workload.Utility, budget float64) (float64, error) {
	r, err := solver.Optimal(us, budget)
	if err != nil {
		return 0, err
	}
	return r.Utility, nil
}
