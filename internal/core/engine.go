package core

import (
	"fmt"
	"math"

	"feasregion/internal/tasktable"
)

// Engine is the clock-free half of an admission controller, shared by
// both clocks: core.Controller is an engine plus des expiry timers,
// online.Controller an engine plus a lock, an expiry wheel and a reject
// gate. It owns the region, the region state (tasktable.State) and the
// per-stage demand scales s_j, and runs the one region test (Fits) over
// them. The caller turns a demand into a vector v of per-stage
// synthetic utilizations; the engine tests and charges v_j·s_j. The
// owner serializes every call. Construct with NewEngine.
type Engine struct {
	region Region
	bound  float64 // region.Bound()
	st     tasktable.State
	scales []float64 // per-stage demand multipliers, 1 = nominal
	buf    []float64 // Commit's scratch: the charged vector v·s
}

// NewEngine returns an empty engine for the region. reserved, when
// non-nil, holds one non-resettable utilization floor per stage for
// pre-certified critical tasks (paper §5), each in [0, 1).
func NewEngine(region Region, reserved []float64) Engine {
	if reserved != nil && len(reserved) != region.Stages {
		panic(fmt.Sprintf("core: %d reserved values for %d stages", len(reserved), region.Stages))
	}
	for _, v := range reserved {
		checkReserved(v)
	}
	e := Engine{
		region: region,
		bound:  region.Bound(),
		st:     tasktable.NewState(region.Stages, reserved),
		scales: make([]float64, region.Stages),
		buf:    make([]float64, region.Stages),
	}
	for j := range e.scales {
		e.scales[j] = 1
	}
	return e
}

// checkReserved panics unless a reserved floor lies in [0, 1).
func checkReserved(v float64) {
	if !(v >= 0 && v < 1) {
		panic(fmt.Sprintf("core: reserved utilization %v outside [0, 1)", v))
	}
}

// State returns the region state, for the owner's row bookkeeping.
func (e *Engine) State() *tasktable.State { return &e.st }

// Region returns the current feasible region. Its Betas are shared and
// must not be written: the engine caches the bound they give.
func (e *Engine) Region() Region { return e.region }

// Bound returns the admission bound α·(1 − Σβ_j).
func (e *Engine) Bound() float64 { return e.bound }

// Fits is the region test (Eq. 15) at the point u plus the demand v
// scaled by s: Σ_j f(u_j + v_j·s_j) ≤ bound; NaN fails. Both
// controllers and the online reject gate decide with it. The float64
// conversion keeps a fused multiply-add from testing another point
// than Commit charges.
func Fits(u, v, s []float64, bound float64) bool {
	sum := 0.0
	v, s = v[:len(u)], s[:len(u)]
	for j, uj := range u {
		sum += StageDelayFactor(uj + float64(v[j]*s[j]))
	}
	return sum <= bound
}

// Fits reports whether the region still holds with v charged.
func (e *Engine) Fits(v []float64) bool {
	return Fits(e.st.Utils(), v, e.scales, e.bound)
}

// FitLevel is the quality cascade's search. vec returns the demand
// vector at a level (monotone in it), nil where malformed; nil at
// maxLevel rejects. It returns maxLevel if that fits, else, for a
// request with optional demand (hasOpt), binary-searches the highest
// level below that fits; a failing level 0 rejects every level. On
// success v is the level's vector from vec; nothing is charged.
func (e *Engine) FitLevel(maxLevel int, hasOpt bool, vec func(level int) []float64) (level int, v []float64, ok bool) {
	at := maxLevel // the level v holds
	if v = vec(maxLevel); v == nil {
		return 0, nil, false
	}
	fits := func(lv int) bool {
		if lv != at {
			v, at = vec(lv), lv
		}
		return v != nil && e.Fits(v)
	}
	switch {
	case fits(maxLevel):
		return maxLevel, v, true
	case !hasOpt || maxLevel == 0 || !fits(0):
		return 0, nil, false
	}
	lo, hi := 0, maxLevel-1
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo != at {
		v = vec(lo)
	}
	return lo, v, true
}

// Commit inserts key's row under stamp and level, charging each stage
// v_j·s_j, and returns its slot.
func (e *Engine) Commit(key uint64, stamp int64, level uint8, v []float64) int {
	for j, vj := range v {
		e.buf[j] = vj * e.scales[j]
	}
	return e.st.Insert(key, stamp, level, e.buf)
}

// Value returns the region value Σ_j f(U_j): Region.Value of the
// state's live point, so it allocates nothing.
func (e *Engine) Value() float64 { return e.region.Value(e.st.Utils()) }

// Headroom returns how much more synthetic utilization stage j could
// absorb right now: Region.Headroom of the live point, allocation-free.
func (e *Engine) Headroom(j int) float64 { return e.region.Headroom(e.st.Utils(), j) }

// SetRegionInputs replaces α and, unless betas is nil, the β_j (see
// Region.WithAlpha and WithBetas; invalid inputs panic before anything
// changes). It reports whether the bound relaxed.
func (e *Engine) SetRegionInputs(alpha float64, betas []float64) (relaxed bool) {
	r := e.region.WithAlpha(alpha)
	if betas != nil {
		r = r.WithBetas(betas)
	}
	old := e.bound
	e.region, e.bound = r, r.Bound()
	return e.bound > old
}

// SetStageScale sets stage j's demand multiplier, in (0, 1e9], for
// future charges. It reports whether the scale relaxed (fell).
func (e *Engine) SetStageScale(j int, scale float64) (relaxed bool) {
	if !(scale > 0 && scale <= 1e9) {
		panic(fmt.Sprintf("core: stage scale %v must be positive and finite", scale))
	}
	old := e.scales[j]
	e.scales[j] = scale
	return scale < old
}

// regionSum maintains Σ f(U_j) over a tentative utilization point while
// the shedding planners subtract contributions from it: each costs O(1)
// instead of an O(N) re-sum. Infinite terms (U_j ≥ 1, f = +Inf) are
// counted, never summed — Inf − Inf is NaN.
type regionSum struct {
	utils, terms []float64
	sum, bound   float64
	infinite     int
}

// newRegionSum starts a planner's sum at the current point plus v·s.
func (e *Engine) newRegionSum(v []float64) *regionSum {
	n := len(e.scales)
	p := &regionSum{utils: make([]float64, n), terms: make([]float64, n), bound: e.bound}
	for j := range p.utils {
		p.utils[j] = e.st.Util(j) + float64(v[j]*e.scales[j])
		p.terms[j] = StageDelayFactor(p.utils[j])
		p.add(p.terms[j], 1)
	}
	return p
}

// add adds sign·term to the sum, counting an infinite term instead.
func (p *regionSum) add(term float64, sign int) {
	if math.IsInf(term, 1) {
		p.infinite += sign
	} else {
		p.sum += float64(sign) * term
	}
}

// sub lowers stage j's utilization by delta.
func (p *regionSum) sub(j int, delta float64) {
	p.utils[j] -= delta
	p.add(p.terms[j], -1)
	p.terms[j] = StageDelayFactor(p.utils[j])
	p.add(p.terms[j], 1)
}

// fits reports whether the point is inside the region.
func (p *regionSum) fits() bool { return p.infinite == 0 && p.sum <= p.bound }
