package core

import (
	"math"
	"sort"
)

// TaskParams is the (priority, relative deadline) pair the urgency-
// inversion analysis needs from each task.
type TaskParams struct {
	Priority float64
	Deadline float64
}

// Alpha computes the urgency-inversion parameter of a priority assignment
// over a task set (paper §2):
//
//	α = min_{Thi ≼ Tlo} D_lo / D_hi
//
// minimized over all ordered pairs in which Thi has equal or higher
// priority than Tlo, capped at 1. Deadline-monotonic assignments have
// α = 1; a random assignment over deadlines in [Dleast, Dmost] approaches
// Dleast/Dmost.
//
// The computation is O(n log n): after sorting by priority, the minimum
// ratio for each task is against the largest deadline among tasks with
// equal or higher priority.
func Alpha(params []TaskParams) float64 {
	if len(params) == 0 {
		return 1
	}
	sorted := append([]TaskParams(nil), params...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Priority < sorted[j].Priority })

	alpha := 1.0
	maxD := 0.0 // largest deadline among strictly-higher-priority tasks
	i := 0
	for i < len(sorted) {
		// Process one group of equal priorities: within a group every
		// member has "equal or higher" priority than every other, so the
		// group's own max deadline counts for all members.
		groupMax := maxD
		j := i
		for j < len(sorted) && sorted[j].Priority == sorted[i].Priority {
			if sorted[j].Deadline > groupMax {
				groupMax = sorted[j].Deadline
			}
			j++
		}
		for k := i; k < j; k++ {
			if groupMax > 0 {
				if ratio := sorted[k].Deadline / groupMax; ratio < alpha {
					alpha = ratio
				}
			}
		}
		maxD = groupMax
		i = j
	}
	if alpha <= 0 || math.IsNaN(alpha) {
		return 0
	}
	return alpha
}

// DMCompatible reports whether the priority assignment never places a
// longer relative deadline at equal-or-higher priority than a shorter
// one — the condition under which the assignment exhibits no urgency
// inversion and earns α = 1. Equal priorities count both ways, so a
// compatible assignment must give equal-deadline tasks in one priority
// group equal deadlines (strict levels over ties always qualify).
func DMCompatible(params []TaskParams) bool { return Alpha(params) >= 1 }

// RegionForOrder builds the feasible region a concrete priority order
// earns: α is recomputed from the order's (priority, deadline) pairs —
// exactly 1 when the order is DM-compatible — and betas, when non-nil,
// supply the per-stage blocking terms. Degenerate orders (a
// non-positive deadline drives α to 0) are clamped to the smallest
// positive α, which admits nothing but keeps the region well-formed.
func RegionForOrder(stages int, params []TaskParams, betas []float64) Region {
	alpha := Alpha(params)
	if alpha <= 0 {
		alpha = math.SmallestNonzeroFloat64
	}
	r := NewRegion(stages).WithAlpha(alpha)
	if betas != nil {
		r = r.WithBetas(betas)
	}
	return r
}
