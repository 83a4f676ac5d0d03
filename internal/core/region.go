package core

import (
	"fmt"
	"math"

	"feasregion/internal/task"
)

// UniprocessorBound is the single-resource aperiodic schedulable
// utilization bound 1/(1+sqrt(1/2)) = 2-sqrt(2) ≈ 0.586 (Abdelzaher & Lu),
// which the feasible region reduces to when N = 1.
var UniprocessorBound = 2 - math.Sqrt2

// StageDelayFactor is the paper's f(U) = U·(1−U/2)/(1−U) from the stage
// delay theorem (Theorem 1): a task's delay at a stage whose synthetic
// utilization never exceeds U is at most f(U)·Dmax. It is defined for
// U in [0, 1); f is 0 at 0, strictly increasing, and diverges at 1, so
// utilizations at or above 1 map to +Inf.
func StageDelayFactor(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u >= 1 {
		return math.Inf(1)
	}
	return u * (1 - u/2) / (1 - u)
}

// InverseStageDelayFactor returns the synthetic utilization U such that
// StageDelayFactor(U) = y, for y ≥ 0. Solving U(1−U/2) = y(1−U) gives
// U = 1 + y − sqrt(1 + y²). For y = 1 this is the uniprocessor bound.
func InverseStageDelayFactor(y float64) float64 {
	if y <= 0 {
		return 0
	}
	if math.IsInf(y, 1) {
		return 1
	}
	// Algebraically equal to 1 + y − sqrt(1+y²) but numerically stable
	// for large y (the naive form cancels catastrophically as U → 1).
	return 1 - 1/(math.Sqrt(1+y*y)+y)
}

// Region is a feasible region in the per-stage synthetic-utilization
// space: all end-to-end deadlines of admitted tasks are met while
//
//	Σ_j f(U_j) ≤ Alpha · (1 − Σ_j Beta_j)          (paper Eq. 15)
//
// Alpha is the scheduling policy's urgency-inversion parameter (1 for
// deadline-monotonic, Eq. 13; Dleast/Dmost for random priorities, Eq. 12)
// and Beta_j is the normalized worst-case blocking max_i B_ij/D_i at stage
// j under the priority ceiling protocol (zero for independent tasks).
type Region struct {
	Stages int
	Alpha  float64
	Betas  []float64 // nil means no blocking at any stage
}

// NewRegion returns the deadline-monotonic, independent-task region for
// the given number of stages (Eq. 13: Σ f(U_j) ≤ 1).
func NewRegion(stages int) Region {
	if stages <= 0 {
		panic(fmt.Sprintf("core: region needs at least one stage, got %d", stages))
	}
	return Region{Stages: stages, Alpha: 1}
}

// WithAlpha returns a copy of the region for a scheduling policy with the
// given urgency-inversion parameter in (0, 1].
func (r Region) WithAlpha(alpha float64) Region {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		panic(fmt.Sprintf("core: alpha must be in (0, 1], got %v", alpha))
	}
	r.Alpha = alpha
	return r
}

// WithBetas returns a copy of the region with per-stage normalized
// blocking terms (Eq. 15). The slice is copied.
func (r Region) WithBetas(betas []float64) Region {
	if len(betas) != r.Stages {
		panic(fmt.Sprintf("core: %d beta terms for %d stages", len(betas), r.Stages))
	}
	for j, b := range betas {
		if b < 0 || math.IsNaN(b) {
			panic(fmt.Sprintf("core: beta[%d] = %v must be non-negative", j, b))
		}
	}
	r.Betas = append([]float64(nil), betas...)
	return r
}

// Bound returns the right-hand side α·(1 − Σβ_j) of the region condition.
// A bound ≤ 0 means blocking alone exceeds the region and nothing is
// admissible.
func (r Region) Bound() float64 {
	sum := 0.0
	for _, b := range r.Betas {
		sum += b
	}
	return r.Alpha * (1 - sum)
}

// Value evaluates the left-hand side Σ_j f(U_j) at the given utilization
// point. Utilizations at or above 1 yield +Inf.
func (r Region) Value(utils []float64) float64 {
	if len(utils) != r.Stages {
		panic(fmt.Sprintf("core: %d utilizations for %d stages", len(utils), r.Stages))
	}
	sum := 0.0
	for _, u := range utils {
		sum += StageDelayFactor(u)
	}
	return sum
}

// Contains reports whether the utilization point lies inside the feasible
// region, i.e. whether every end-to-end deadline is guaranteed.
func (r Region) Contains(utils []float64) bool {
	return r.Value(utils) <= r.Bound()
}

// BalancedStageBound returns the largest per-stage utilization U such
// that the balanced point (U, ..., U) is inside the region: the value u
// with N·f(u) = Bound. For one deadline-monotonic stage this is the
// uniprocessor bound.
func (r Region) BalancedStageBound() float64 {
	b := r.Bound()
	if b <= 0 {
		return 0
	}
	return InverseStageDelayFactor(b / float64(r.Stages))
}

// Headroom returns how much additional synthetic utilization stage j
// could absorb with every other stage held at the given point: the
// largest δ ≥ 0 with the point + δ·e_j still inside the region. An
// operator dashboard quantity: "how much more load fits on this stage
// right now".
func (r Region) Headroom(utils []float64, j int) float64 {
	if len(utils) != r.Stages {
		panic(fmt.Sprintf("core: %d utilizations for %d stages", len(utils), r.Stages))
	}
	if j < 0 || j >= r.Stages {
		panic(fmt.Sprintf("core: headroom stage %d out of range", j))
	}
	rest := 0.0
	for k, u := range utils {
		if k != j {
			rest += StageDelayFactor(u)
		}
	}
	budget := r.Bound() - rest
	if budget <= StageDelayFactor(utils[j]) {
		return 0
	}
	max := InverseStageDelayFactor(budget)
	if max <= utils[j] {
		return 0
	}
	return max - utils[j]
}

// SurfacePoint returns, for a two-stage region, the largest U2 admissible
// given U1 (a point on the bounding surface). It panics for regions with
// other stage counts; use Value/Contains directly for those.
func (r Region) SurfacePoint(u1 float64) float64 {
	if r.Stages != 2 {
		panic(fmt.Sprintf("core: SurfacePoint is defined for 2 stages, region has %d", r.Stages))
	}
	rem := r.Bound() - StageDelayFactor(u1)
	if rem <= 0 {
		return 0
	}
	return InverseStageDelayFactor(rem)
}

// GraphValue evaluates the left-hand side of Theorem 2 for a DAG task
// graph: the maximum over source-to-sink paths of Σ (f(U_k) + β_k) where
// k is the resource of each node on the path. utils[k] (and betas[k],
// when non-nil) index the system's resources; multiple nodes on one
// resource share its utilization.
func GraphValue(g *task.Graph, utils, betas []float64) float64 {
	w := nodeDelay{g, utils, betas}
	return g.LongestPath(w.of)
}

// nodeDelay is Theorem 2's per-node weight at the utilization point
// utils: f(U_k) + β_k of the node's resource k.
type nodeDelay struct {
	g            *task.Graph
	utils, betas []float64
}

func (w *nodeDelay) of(n int) float64 {
	k := w.g.Nodes[n].Resource
	v := StageDelayFactor(w.utils[k])
	if w.betas != nil {
		v += w.betas[k]
	}
	return v
}

// GraphFeasible reports whether the DAG task's feasible-region condition
// d(f(U_k1)+β_k1, ..., f(U_kM)+β_kM) ≤ α holds (Theorem 2).
func GraphFeasible(g *task.Graph, utils, betas []float64, alpha float64) bool {
	return GraphValue(g, utils, betas) <= alpha
}
