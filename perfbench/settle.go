package main

import (
	"math"
	"time"

	"powercap/internal/workload"
)

// capsView is one daemon's GET /v1/caps answer.
type capsView struct {
	Node    int     `json:"node"`
	Round   int     `json:"round"`
	CapW    float64 `json:"cap_w"`
	BudgetW float64 `json:"budget_w"`
	Dead    []int   `json:"dead"`
}

// sweep is one poll of every daemon, in node order, and when it ended
// relative to the step's first POST.
type sweep struct {
	At    time.Duration
	Views []capsView
}

// settleTol is how close Σ r_i(cap_i) must come to the centralized
// optimum for a step to count as settled: the paper's 99% (Eq. 4.11).
const settleTol = 0.01

// safeSlackW absorbs float rounding in Σ cap_i when it sits at the budget.
const safeSlackW = 1e-6

// detector decides, sweep by sweep, when a budget step became safe (Σ of
// the latest caps within the new budget — what protects the breaker) and
// when it settled (every daemon reports the new budget and the cluster's
// utility is within settleTol of the optimum under it).
type detector struct {
	budgetW float64
	us      []workload.Utility
	optU    float64

	safe, settled        bool
	safeAt, settleAt     time.Duration
	safeRound, settleRnd float64 // mean daemon round at that sweep
}

func newDetector(budgetW float64, us []workload.Utility, optU float64) *detector {
	return &detector{budgetW: budgetW, us: us, optU: optU}
}

// observe feeds one sweep and reports whether the step has settled.
func (d *detector) observe(s sweep) bool {
	var sumCap, sumU, rounds float64
	views := true
	for i, v := range s.Views {
		sumCap += v.CapW
		sumU += d.us[i].Value(v.CapW)
		rounds += float64(v.Round)
		if v.BudgetW != d.budgetW {
			views = false
		}
	}
	rounds /= float64(len(s.Views))
	if !d.safe && sumCap <= d.budgetW+safeSlackW {
		d.safe, d.safeAt, d.safeRound = true, s.At, rounds
	}
	if !d.settled && d.safe && views && math.Abs(sumU-d.optU) <= settleTol*d.optU {
		d.settled, d.settleAt, d.settleRnd = true, s.At, rounds
	}
	return d.settled
}
