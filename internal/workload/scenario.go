package workload

import (
	"fmt"
	"io"
	"math"
	"sort"

	"feasregion/internal/dist"
)

// RatePoint is one breakpoint of a piecewise-linear arrival-rate curve:
// the aggregate Poisson rate is Rate at time At and interpolates linearly
// between consecutive points (constant before the first and after the
// last). Diurnal patterns are a handful of these per simulated day.
type RatePoint struct {
	At   float64
	Rate float64
}

// Cohort is one user class inside a scenario: a share of the arrival
// stream with its own demand scale and deadline behavior.
type Cohort struct {
	// Name labels the cohort's tasks (Task.Class and the trace class
	// table).
	Name string
	// Share is the cohort's fraction of all arrivals; shares must sum
	// to 1.
	Share float64
	// DemandScale multiplies the scenario's per-stage mean demands for
	// this cohort (1 = baseline).
	DemandScale float64
	// Resolution is the cohort's mean deadline over its mean total
	// computation (the paper's task resolution).
	Resolution float64
	// DeadlineSpread widens the uniform deadline distribution to
	// mean·[1−s, 1+s]; 0 selects the default 0.5.
	DeadlineSpread float64
}

// FlashCrowd multiplies the baseline rate curve by Multiplier during
// [Start, Start+Duration) — a surge layered on the diurnal pattern.
// Overlapping crowds compound multiplicatively.
type FlashCrowd struct {
	Start      float64
	Duration   float64
	Multiplier float64
}

// Scenario is a declarative workload specification: a diurnal
// piecewise-linear rate curve, user-class cohorts drawing from scaled
// per-stage demand distributions, and flash crowds layered on the
// baseline. RecordTrace streams it into a binary trace without a
// simulator; a Replayer plays that trace into one.
type Scenario struct {
	// Stages is the pipeline length; demands are exponential per stage.
	Stages int
	// MeanDemand is the baseline per-stage mean computation time.
	MeanDemand float64
	// StageScale optionally skews per-stage means (nil = balanced).
	StageScale []float64
	// Curve is the baseline rate curve; it must be non-empty with
	// strictly increasing times and non-negative rates.
	Curve []RatePoint
	// Cohorts partition arrivals into user classes; at least one.
	Cohorts []Cohort
	// Crowds are optional flash-crowd overlays.
	Crowds []FlashCrowd
	// Horizon ends the scenario: no arrivals at or after it.
	Horizon float64
	// Seed drives all sampling; equal seeds reproduce the trace exactly.
	Seed int64
	// AllowOverload skips the feasibility check that every stage's
	// offered load stays below capacity at the peak of the curve —
	// deliberately infeasible stress scenarios set it.
	AllowOverload bool
}

// Validate checks structural soundness and — unless AllowOverload —
// feasibility: the offered per-stage load ρ_j(t) = λ(t)·E[C_j] must stay
// below 1 at every breakpoint of the rate curve and every flash-crowd
// edge (λ is piecewise-linear, so per-stage load is too, and its maximum
// is attained at a breakpoint).
func (sc *Scenario) Validate() error {
	if sc.Stages < 1 {
		return fmt.Errorf("workload: scenario needs stages, got %d", sc.Stages)
	}
	if !(sc.MeanDemand > 0) {
		return fmt.Errorf("workload: scenario mean demand %v must be positive", sc.MeanDemand)
	}
	if sc.StageScale != nil && len(sc.StageScale) != sc.Stages {
		return fmt.Errorf("workload: %d stage scales for %d stages", len(sc.StageScale), sc.Stages)
	}
	for j, s := range sc.StageScale {
		if !(s > 0) {
			return fmt.Errorf("workload: stage scale[%d] = %v must be positive", j, s)
		}
	}
	if len(sc.Curve) == 0 {
		return fmt.Errorf("workload: scenario needs a rate curve")
	}
	for i, p := range sc.Curve {
		if p.Rate < 0 || math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) {
			return fmt.Errorf("workload: curve point %d rate %v invalid", i, p.Rate)
		}
		if i > 0 && p.At <= sc.Curve[i-1].At {
			return fmt.Errorf("workload: curve times must strictly increase (point %d)", i)
		}
	}
	if !(sc.Horizon > 0) {
		return fmt.Errorf("workload: scenario horizon %v must be positive", sc.Horizon)
	}
	if len(sc.Cohorts) == 0 {
		return fmt.Errorf("workload: scenario needs at least one cohort")
	}
	if len(sc.Cohorts) > maxTraceClasses {
		return fmt.Errorf("workload: %d cohorts exceed the trace format's %d classes", len(sc.Cohorts), maxTraceClasses)
	}
	shares := 0.0
	seen := map[string]bool{}
	for i, c := range sc.Cohorts {
		if c.Name == "" {
			return fmt.Errorf("workload: cohort %d needs a name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload: duplicate cohort %q", c.Name)
		}
		seen[c.Name] = true
		if !(c.Share > 0) {
			return fmt.Errorf("workload: cohort %q share %v must be positive", c.Name, c.Share)
		}
		if !(c.DemandScale > 0) || !(c.Resolution > 0) {
			return fmt.Errorf("workload: cohort %q needs positive demand scale and resolution", c.Name)
		}
		if c.DeadlineSpread < 0 || c.DeadlineSpread >= 1 {
			return fmt.Errorf("workload: cohort %q deadline spread %v must be in [0, 1)", c.Name, c.DeadlineSpread)
		}
		shares += c.Share
	}
	if math.Abs(shares-1) > 1e-9 {
		return fmt.Errorf("workload: cohort shares sum to %v, want 1", shares)
	}
	for i, fc := range sc.Crowds {
		if !(fc.Duration > 0) || !(fc.Multiplier > 0) || fc.Start < 0 {
			return fmt.Errorf("workload: flash crowd %d needs non-negative start, positive duration and multiplier", i)
		}
	}
	if sc.AllowOverload {
		return nil
	}
	if load, at := sc.PeakLoad(); load >= 1 {
		return fmt.Errorf("workload: scenario infeasible: peak per-stage load %.3f ≥ 1 at t=%v (set AllowOverload for deliberate stress)", load, at)
	}
	return nil
}

// meanStageDemands returns E[C_j] across the cohort mix.
func (sc *Scenario) meanStageDemands() []float64 {
	mix := 0.0
	for _, c := range sc.Cohorts {
		mix += c.Share * c.DemandScale
	}
	means := make([]float64, sc.Stages)
	for j := range means {
		means[j] = sc.MeanDemand * mix
		if sc.StageScale != nil {
			means[j] *= sc.StageScale[j]
		}
	}
	return means
}

// baseRate evaluates the rate curve (without crowds) at t.
func (sc *Scenario) baseRate(t float64) float64 {
	c := sc.Curve
	if t <= c[0].At {
		return c[0].Rate
	}
	if t >= c[len(c)-1].At {
		return c[len(c)-1].Rate
	}
	i := sort.Search(len(c), func(k int) bool { return c[k].At > t }) - 1
	a, b := c[i], c[i+1]
	frac := (t - a.At) / (b.At - a.At)
	return a.Rate + frac*(b.Rate-a.Rate)
}

// Rate evaluates the effective arrival rate at t: the curve with every
// covering flash crowd's multiplier applied.
func (sc *Scenario) Rate(t float64) float64 {
	r := sc.baseRate(t)
	for _, fc := range sc.Crowds {
		if t >= fc.Start && t < fc.Start+fc.Duration {
			r *= fc.Multiplier
		}
	}
	return r
}

// breakpoints returns every instant where the effective rate's slope or
// level can change within [0, Horizon]: curve points, crowd edges (and
// crowd edges projected onto interior curve points), 0, and Horizon.
func (sc *Scenario) breakpoints() []float64 {
	var ts []float64
	add := func(t float64) {
		if t >= 0 && t <= sc.Horizon {
			ts = append(ts, t)
		}
	}
	add(0)
	add(sc.Horizon)
	for _, p := range sc.Curve {
		add(p.At)
	}
	for _, fc := range sc.Crowds {
		add(fc.Start)
		end := fc.Start + fc.Duration
		add(end)
		// Just inside the window, where the multiplier applies.
		add(math.Nextafter(end, 0))
		for _, p := range sc.Curve {
			if p.At > fc.Start && p.At < end {
				add(p.At)
			}
		}
	}
	sort.Float64s(ts)
	return ts
}

// MaxRate returns the peak effective arrival rate over [0, Horizon].
func (sc *Scenario) MaxRate() float64 {
	max := 0.0
	for _, t := range sc.breakpoints() {
		if r := sc.Rate(t); r > max {
			max = r
		}
	}
	return max
}

// PeakLoad returns the maximum per-stage offered load ρ_j(t) =
// λ(t)·E[C_j] over [0, Horizon] and the time it is attained at. Loads
// are piecewise-linear in t, so scanning breakpoints is exact.
func (sc *Scenario) PeakLoad() (load, at float64) {
	means := sc.meanStageDemands()
	maxMean := 0.0
	for _, m := range means {
		if m > maxMean {
			maxMean = m
		}
	}
	for _, t := range sc.breakpoints() {
		if l := sc.Rate(t) * maxMean; l > load {
			load, at = l, t
		}
	}
	return load, at
}

// scenarioGen is RecordTrace's sampling core: a nonhomogeneous Poisson
// process by thinning against the peak rate, cohort selection by share,
// and per-cohort demand/deadline sampling. Sampling order is fixed, so
// one seed yields one arrival sequence.
type scenarioGen struct {
	sc     *Scenario
	rng    *dist.RNG
	lambda float64 // thinning envelope: peak effective rate
	clock  float64
	means  []float64 // baseline per-stage means (before cohort scale)
	demand []dist.Distribution
	dlines []dist.Distribution // per-cohort deadline distributions
	cumul  []float64           // cumulative cohort shares
}

func newScenarioGen(sc *Scenario) *scenarioGen {
	g := &scenarioGen{
		sc:     sc,
		rng:    dist.NewRNG(sc.Seed),
		lambda: sc.MaxRate(),
		means:  make([]float64, sc.Stages),
		demand: make([]dist.Distribution, sc.Stages),
	}
	for j := range g.means {
		g.means[j] = sc.MeanDemand
		if sc.StageScale != nil {
			g.means[j] *= sc.StageScale[j]
		}
		g.demand[j] = dist.NewExponential(g.means[j])
	}
	base := 0.0
	for _, m := range g.means {
		base += m
	}
	cum := 0.0
	for _, c := range sc.Cohorts {
		cum += c.Share
		g.cumul = append(g.cumul, cum)
		spread := c.DeadlineSpread
		if spread == 0 {
			spread = 0.5
		}
		md := c.Resolution * base * c.DemandScale
		g.dlines = append(g.dlines, dist.NewUniform(md*(1-spread), md*(1+spread)))
	}
	g.cumul[len(g.cumul)-1] = 1 // close the interval against rounding
	return g
}

// next advances the thinned Poisson clock to the next accepted arrival,
// returning false when the horizon is reached (or the rate is zero).
func (g *scenarioGen) next() (float64, bool) {
	if g.lambda <= 0 {
		return 0, false
	}
	for {
		g.clock += g.rng.ExpFloat64() / g.lambda
		if g.clock >= g.sc.Horizon {
			return 0, false
		}
		if g.rng.Float64()*g.lambda < g.sc.Rate(g.clock) {
			return g.clock, true
		}
	}
}

// emitRecord samples the accepted arrival's cohort, demands, and
// deadline: it fills demands and returns (cohort, deadline) for direct
// trace writing.
func (g *scenarioGen) emitRecord(demands []float64) (cohort int, deadline float64) {
	k := g.pickCohort()
	c := &g.sc.Cohorts[k]
	for j, d := range g.demand {
		demands[j] = d.Sample(g.rng) * c.DemandScale
	}
	return k, g.dlines[k].Sample(g.rng)
}

func (g *scenarioGen) pickCohort() int {
	u := g.rng.Float64()
	for k, c := range g.cumul {
		if u < c {
			return k
		}
	}
	return len(g.cumul) - 1
}

// RecordTrace streams the scenario's full arrival sequence into a binary
// trace without a simulator — the fast path for generating
// tens-of-millions-of-records stress traces. The class table is the
// cohort list in order. It returns the record count.
func (sc *Scenario) RecordTrace(w io.Writer) (uint64, error) {
	if err := sc.Validate(); err != nil {
		return 0, err
	}
	classes := make([]string, len(sc.Cohorts))
	for i, c := range sc.Cohorts {
		classes[i] = c.Name
	}
	tw, err := NewTraceWriter(w, sc.Stages, classes)
	if err != nil {
		return 0, err
	}
	g := newScenarioGen(sc)
	demands := make([]float64, sc.Stages)
	for {
		at, ok := g.next()
		if !ok {
			break
		}
		cohort, deadline := g.emitRecord(demands)
		if err := tw.Write(at, deadline, cohort, demands); err != nil {
			return 0, err
		}
	}
	if err := tw.Close(); err != nil {
		return 0, err
	}
	return tw.Count(), nil
}
