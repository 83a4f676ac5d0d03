package adapt

import (
	"fmt"
	"math"
	"sync"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/task"
	"feasregion/internal/ticker"
)

// RegionSink receives the loop's region updates. Both
// core.Controller and online.Controller implement it.
type RegionSink interface {
	// SetRegionInputs replaces the region's urgency-inversion parameter
	// α and per-stage blocking terms β_j (nil betas keeps the current
	// terms).
	SetRegionInputs(alpha float64, betas []float64)
}

// Sources bundles the telemetry feeds the estimators read. Quantile and
// count functions are typically closures over internal/metrics
// histograms; the per-class maps come from core.Guard.DetectedByClass
// and the embedding system's admission accounting. Every configured
// function must be safe to call from the loop's driving goroutine.
type Sources struct {
	// SojournQuantile returns the q-quantile of stage j's sojourn-time
	// (submit → completion) distribution, in seconds. Required when the
	// β or α estimator is enabled.
	SojournQuantile func(stage int, q float64) float64
	// SojournCount returns the number of sojourn observations at stage
	// j; estimators act only on stages with fresh samples. Required
	// when the β or α estimator is enabled.
	SojournCount func(stage int) uint64
	// ServiceQuantile, when non-nil, returns the q-quantile of stage
	// j's pure service-time distribution; the estimators then use
	// sojourn − service (time spent not executing) as the delay signal,
	// which separates blocking/queueing from the work itself.
	ServiceQuantile func(stage int, q float64) float64
	// StageUtilization, when non-nil, returns stage j's current
	// synthetic utilization U_j(t); the estimators subtract Theorem 1's
	// predicted delay f(U_j)·DeadlineRef from the observed delay so
	// healthy queueing is not misread as blocking or urgency inversion.
	StageUtilization func(stage int) float64
	// OverrunsByClass returns cumulative overrun detections per task
	// class (core.Guard.DetectedByClass). Required when the demand
	// estimator is enabled.
	OverrunsByClass func() map[string]uint64
	// AdmittedByClass returns cumulative admitted-task counts per
	// class. Required when the demand estimator is enabled.
	AdmittedByClass func() map[string]uint64
}

// BetaConfig tunes the blocking estimator.
type BetaConfig struct {
	// Enabled turns the estimator on.
	Enabled bool
	// Quantile is the sojourn-tail quantile observed (default 0.99).
	Quantile float64
	// Cap bounds each adaptive β_j (default 0.25). It must be at least
	// every base blocking term: the estimator never relaxes β_j below
	// the configured base, only tightens above it.
	Cap float64
	// TightenWeight is the smoothing weight applied when the estimate
	// rises (default 0.5); RelaxWeight when it falls (default 0.05).
	// TightenWeight ≥ RelaxWeight is enforced: the bound can only
	// tighten faster than it relaxes.
	TightenWeight float64
	// RelaxWeight is the downward smoothing weight (default 0.05).
	RelaxWeight float64
	// MinSamples is the number of sojourn observations a stage needs
	// before its β moves (default 20).
	MinSamples uint64
}

// DemandConfig tunes the per-class demand estimator
// (multiplicative-increase/additive-decrease).
type DemandConfig struct {
	// Enabled turns the estimator on.
	Enabled bool
	// TargetRate is the tolerated overruns-per-admission rate; a class
	// above it gets its demand estimates inflated (default 0.05).
	TargetRate float64
	// Increase is the multiplicative inflation step, > 1 (default 1.5).
	Increase float64
	// Decrease is the additive recovery step per quiet window, > 0
	// (default 0.125).
	Decrease float64
	// Max caps the per-class inflation factor (default 8).
	Max float64
	// MinSamples is the number of admissions a class needs inside one
	// window before its rate is judged (default 10); smaller windows
	// accumulate into the next tick.
	MinSamples uint64
}

// AlphaConfig tunes the urgency-inversion estimator.
type AlphaConfig struct {
	// Enabled turns the estimator on.
	Enabled bool
	// Quantile is the delay-tail quantile compared against Theorem 1's
	// prediction (default 0.99).
	Quantile float64
	// Floor bounds the adaptive α from below (default 0.25); the
	// estimator never raises α above the configured base.
	Floor float64
	// Margin is the observed/predicted delay ratio tolerated before α
	// shrinks (default 1.5): measurement noise and the conservatism of
	// Theorem 1 itself should not read as urgency inversion.
	Margin float64
	// MinPredicted floors the predicted delay at MinPredicted·DeadlineRef
	// (default 0.05), so near-idle stages with coarse histograms do not
	// divide by ~zero.
	MinPredicted float64
	// TightenWeight (default 0.5) and RelaxWeight (default 0.05) are
	// the shrink/recover smoothing weights; TightenWeight ≥ RelaxWeight
	// is enforced.
	TightenWeight float64
	// RelaxWeight is the upward (recovery) smoothing weight.
	RelaxWeight float64
	// MinSamples is the number of sojourn observations a stage needs
	// before it votes on α (default 20).
	MinSamples uint64
}

// Config assembles the three estimators of a Loop. Zero-valued tuning
// fields take the documented defaults; invalid values panic at
// construction (misconfiguring the safety loop is a wiring bug).
type Config struct {
	// DeadlineRef is the reference end-to-end deadline, in seconds,
	// used to normalize observed delays (the D in β_j = B_j/D and in
	// Theorem 1's f(U_j)·D bound). Typically the workload's mean or
	// shortest deadline. Required when the β or α estimator is enabled.
	DeadlineRef float64
	// Beta configures the blocking estimator.
	Beta BetaConfig
	// Demand configures the per-class demand estimator.
	Demand DemandConfig
	// Alpha configures the urgency-inversion estimator.
	Alpha AlphaConfig
}

// withDefaults validates cfg and fills zero fields with defaults.
func (cfg Config) withDefaults() Config {
	fill := func(v *float64, def float64) {
		if *v == 0 {
			*v = def
		}
	}
	fillU := func(v *uint64, def uint64) {
		if *v == 0 {
			*v = def
		}
	}
	b := &cfg.Beta
	fill(&b.Quantile, 0.99)
	fill(&b.Cap, 0.25)
	fill(&b.TightenWeight, 0.5)
	fill(&b.RelaxWeight, 0.05)
	fillU(&b.MinSamples, 20)
	a := &cfg.Alpha
	fill(&a.Quantile, 0.99)
	fill(&a.Floor, 0.25)
	fill(&a.Margin, 1.5)
	fill(&a.MinPredicted, 0.05)
	fill(&a.TightenWeight, 0.5)
	fill(&a.RelaxWeight, 0.05)
	fillU(&a.MinSamples, 20)
	d := &cfg.Demand
	fill(&d.TargetRate, 0.05)
	fill(&d.Increase, 1.5)
	fill(&d.Decrease, 0.125)
	fill(&d.Max, 8)
	fillU(&d.MinSamples, 10)

	if (cfg.Beta.Enabled || cfg.Alpha.Enabled) && (cfg.DeadlineRef <= 0 || math.IsNaN(cfg.DeadlineRef)) {
		panic(fmt.Sprintf("adapt: DeadlineRef must be positive when the β or α estimator is enabled, got %v", cfg.DeadlineRef))
	}
	if q := b.Quantile; q <= 0 || q >= 1 {
		panic(fmt.Sprintf("adapt: beta quantile %v must be in (0, 1)", q))
	}
	if b.Cap < 0 || math.IsNaN(b.Cap) {
		panic(fmt.Sprintf("adapt: beta cap %v must be non-negative", b.Cap))
	}
	if b.TightenWeight <= 0 || b.TightenWeight > 1 || b.RelaxWeight <= 0 || b.RelaxWeight > b.TightenWeight {
		panic(fmt.Sprintf("adapt: beta weights tighten=%v relax=%v must satisfy 0 < relax ≤ tighten ≤ 1 (tighten fast, relax slow)", b.TightenWeight, b.RelaxWeight))
	}
	if q := a.Quantile; q <= 0 || q >= 1 {
		panic(fmt.Sprintf("adapt: alpha quantile %v must be in (0, 1)", q))
	}
	if a.Floor <= 0 || a.Floor > 1 || math.IsNaN(a.Floor) {
		panic(fmt.Sprintf("adapt: alpha floor %v must be in (0, 1]", a.Floor))
	}
	if a.Margin < 1 || math.IsNaN(a.Margin) {
		panic(fmt.Sprintf("adapt: alpha margin %v must be ≥ 1", a.Margin))
	}
	if a.MinPredicted < 0 || math.IsNaN(a.MinPredicted) {
		panic(fmt.Sprintf("adapt: alpha MinPredicted %v must be non-negative", a.MinPredicted))
	}
	if a.TightenWeight <= 0 || a.TightenWeight > 1 || a.RelaxWeight <= 0 || a.RelaxWeight > a.TightenWeight {
		panic(fmt.Sprintf("adapt: alpha weights tighten=%v relax=%v must satisfy 0 < relax ≤ tighten ≤ 1 (shrink fast, recover slow)", a.TightenWeight, a.RelaxWeight))
	}
	if d.TargetRate < 0 || math.IsNaN(d.TargetRate) {
		panic(fmt.Sprintf("adapt: demand target rate %v must be non-negative", d.TargetRate))
	}
	if d.Increase <= 1 || math.IsNaN(d.Increase) {
		panic(fmt.Sprintf("adapt: demand increase %v must be > 1 (multiplicative)", d.Increase))
	}
	if d.Decrease <= 0 || math.IsNaN(d.Decrease) {
		panic(fmt.Sprintf("adapt: demand decrease %v must be > 0 (additive)", d.Decrease))
	}
	if d.Max < 1 || math.IsNaN(d.Max) {
		panic(fmt.Sprintf("adapt: demand inflation cap %v must be ≥ 1", d.Max))
	}
	return cfg
}

// LoopStats is a snapshot of the loop's activity and current outputs.
type LoopStats struct {
	// Ticks counts estimation passes.
	Ticks uint64
	// RegionUpdates counts ticks that pushed a changed (α, β) to the
	// sink.
	RegionUpdates uint64
	// Alpha is the currently applied urgency-inversion parameter.
	Alpha float64
	// Betas are the currently applied per-stage blocking terms.
	Betas []float64
	// InflationByClass maps each class with a non-nominal demand
	// inflation factor to that factor.
	InflationByClass map[string]float64
}

// Loop runs the three estimators against a base region and pushes
// updates to a sink. Construct with NewLoop; drive it by calling Tick
// periodically — from simulation events (ScheduleSim), a background
// goroutine (Start), or the embedding application's own cadence. All
// methods are safe for concurrent use.
type Loop struct {
	cfg  Config
	base core.Region
	sink RegionSink
	src  Sources

	mu        sync.Mutex
	alpha     float64
	betas     []float64 // applied per-stage blocking terms
	baseBetas []float64 // configured floor (zeros when base.Betas == nil)
	betaCount []uint64  // sojourn counts at last β update, per stage
	alphaSeen []uint64  // sojourn counts at last α vote, per stage
	implied   []float64 // last per-stage implied α ratio (1 = nominal)
	infl      map[string]float64
	lastOv    map[string]uint64
	lastAd    map[string]uint64
	stats     LoopStats

	// Instruments are nil (free no-ops) until SetMetrics.
	reg        *metrics.Registry
	metAlpha   *metrics.Gauge
	metBound   *metrics.Gauge
	metBeta    []*metrics.Gauge
	metUpdates *metrics.Counter
	metInfl    map[string]*metrics.Gauge
}

// NewLoop builds a loop over the base region. sink receives every
// region change (both controllers implement RegionSink); src must
// provide the feeds the enabled estimators need. The base region is the
// trust anchor: adaptive β_j never drops below base.Betas and adaptive
// α never exceeds base.Alpha, so the applied region is always a subset
// of the configured one.
func NewLoop(cfg Config, base core.Region, sink RegionSink, src Sources) *Loop {
	cfg = cfg.withDefaults()
	if sink == nil {
		panic("adapt: nil region sink")
	}
	if (cfg.Beta.Enabled || cfg.Alpha.Enabled) && (src.SojournQuantile == nil || src.SojournCount == nil) {
		panic("adapt: β/α estimators need SojournQuantile and SojournCount sources")
	}
	if cfg.Demand.Enabled && (src.OverrunsByClass == nil || src.AdmittedByClass == nil) {
		panic("adapt: demand estimator needs OverrunsByClass and AdmittedByClass sources")
	}
	l := &Loop{
		cfg:       cfg,
		base:      base,
		sink:      sink,
		src:       src,
		alpha:     base.Alpha,
		betas:     make([]float64, base.Stages),
		baseBetas: make([]float64, base.Stages),
		betaCount: make([]uint64, base.Stages),
		alphaSeen: make([]uint64, base.Stages),
		implied:   make([]float64, base.Stages),
		infl:      map[string]float64{},
		lastOv:    map[string]uint64{},
		lastAd:    map[string]uint64{},
	}
	for j := range l.implied {
		l.implied[j] = 1
	}
	if base.Betas != nil {
		copy(l.betas, base.Betas)
		copy(l.baseBetas, base.Betas)
	}
	if cfg.Beta.Enabled {
		for j, b := range l.baseBetas {
			if b > cfg.Beta.Cap {
				panic(fmt.Sprintf("adapt: base beta[%d] = %v exceeds the cap %v", j, b, cfg.Beta.Cap))
			}
		}
	}
	return l
}

// SetMetrics registers the loop's observability instruments: the
// applied α, per-stage β_j, the resulting bound, a region-update
// counter, and per-class demand inflation gauges (registered lazily as
// classes appear). A nil registry is a no-op.
func (l *Loop) SetMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reg = r
	l.metAlpha = r.Gauge("feasregion_adapt_alpha", "urgency-inversion parameter α applied to the region")
	l.metBound = r.Gauge("feasregion_adapt_bound", "applied admission bound α·(1−Σβ_j)")
	l.metUpdates = r.Counter("feasregion_adapt_region_updates_total", "region-input pushes to the admission controller")
	l.metBeta = make([]*metrics.Gauge, l.base.Stages)
	for j := range l.metBeta {
		l.metBeta[j] = r.Gauge("feasregion_adapt_beta", "adaptive per-stage normalized blocking β_j", metrics.Stage(j))
		l.metBeta[j].Set(l.betas[j])
	}
	l.metInfl = map[string]*metrics.Gauge{}
	l.metAlpha.Set(l.alpha)
	l.metBound.Set(l.boundLocked())
}

// boundLocked returns the applied bound α·(1−Σβ).
func (l *Loop) boundLocked() float64 {
	sum := 0.0
	for _, b := range l.betas {
		sum += b
	}
	return l.alpha * (1 - sum)
}

// Tick runs one estimation pass: each enabled estimator reads its
// sources, applies hysteresis, and — when the applied (α, β) changed —
// the loop pushes the new inputs to the sink. Demand inflation factors
// take effect through WrapEstimator immediately, without a sink push.
func (l *Loop) Tick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Ticks++
	changed := false
	if l.cfg.Beta.Enabled && l.updateBetasLocked() {
		changed = true
	}
	if l.cfg.Alpha.Enabled && l.updateAlphaLocked() {
		changed = true
	}
	if l.cfg.Demand.Enabled {
		l.updateDemandLocked()
	}
	if changed {
		l.stats.RegionUpdates++
		l.metUpdates.Inc()
		l.metAlpha.Set(l.alpha)
		if l.metBeta != nil {
			for j, g := range l.metBeta {
				g.Set(l.betas[j])
			}
		}
		l.metBound.Set(l.boundLocked())
		l.sink.SetRegionInputs(l.alpha, append([]float64(nil), l.betas...))
	}
}

// delaySignal returns the observed tail delay at the stage (sojourn
// minus service when a service source exists) and Theorem 1's predicted
// delay for its current utilization.
func (l *Loop) delaySignal(stage int, q float64) (observed, predicted float64) {
	observed = l.src.SojournQuantile(stage, q)
	if l.src.ServiceQuantile != nil {
		observed -= l.src.ServiceQuantile(stage, q)
		if observed < 0 {
			observed = 0
		}
	}
	u := 0.0
	if l.src.StageUtilization != nil {
		u = l.src.StageUtilization(stage)
	}
	predicted = core.StageDelayFactor(u) * l.cfg.DeadlineRef
	if math.IsInf(predicted, 1) {
		predicted = l.cfg.DeadlineRef
	}
	return observed, predicted
}

// updateBetasLocked runs the blocking estimator; it reports whether any
// β_j moved.
func (l *Loop) updateBetasLocked() bool {
	cfg := l.cfg.Beta
	moved := false
	for j := range l.betas {
		n := l.src.SojournCount(j)
		if n < cfg.MinSamples || n == l.betaCount[j] {
			continue // stale or warming up: hold the current estimate
		}
		l.betaCount[j] = n
		obs, pred := l.delaySignal(j, cfg.Quantile)
		excess := obs - pred
		if excess < 0 {
			excess = 0
		}
		target := l.baseBetas[j] + excess/l.cfg.DeadlineRef
		if target > cfg.Cap {
			target = cfg.Cap
		}
		cur := l.betas[j]
		w := cfg.RelaxWeight
		if target > cur {
			w = cfg.TightenWeight
		}
		next := cur + w*(target-cur)
		if next < l.baseBetas[j] {
			next = l.baseBetas[j]
		}
		if next != cur {
			l.betas[j] = next
			moved = true
		}
	}
	return moved
}

// updateAlphaLocked runs the urgency-inversion estimator; it reports
// whether α moved.
func (l *Loop) updateAlphaLocked() bool {
	cfg := l.cfg.Alpha
	for j := range l.implied {
		n := l.src.SojournCount(j)
		if n < cfg.MinSamples || n == l.alphaSeen[j] {
			continue // no fresh evidence: keep the stage's last vote
		}
		l.alphaSeen[j] = n
		obs, pred := l.delaySignal(j, cfg.Quantile)
		if floor := cfg.MinPredicted * l.cfg.DeadlineRef; pred < floor {
			pred = floor
		}
		ratio := 1.0
		if obs > cfg.Margin*pred {
			ratio = cfg.Margin * pred / obs
		}
		l.implied[j] = ratio
	}
	worst := 1.0
	for _, r := range l.implied {
		if r < worst {
			worst = r
		}
	}
	floor := cfg.Floor
	if floor > l.base.Alpha {
		floor = l.base.Alpha
	}
	target := l.base.Alpha * worst
	if target < floor {
		target = floor
	}
	cur := l.alpha
	w := cfg.RelaxWeight
	if target < cur {
		w = cfg.TightenWeight
	}
	next := cur + w*(target-cur)
	if next > l.base.Alpha {
		next = l.base.Alpha
	}
	if next < floor {
		next = floor
	}
	if next == cur {
		return false
	}
	l.alpha = next
	return true
}

// updateDemandLocked runs the per-class MIAD demand estimator.
func (l *Loop) updateDemandLocked() {
	cfg := l.cfg.Demand
	ov := l.src.OverrunsByClass()
	ad := l.src.AdmittedByClass()
	for class, admitted := range ad {
		dAdm := admitted - l.lastAd[class]
		if dAdm < cfg.MinSamples {
			continue // window too small: let it accumulate into the next tick
		}
		overruns := ov[class]
		dOv := overruns - l.lastOv[class]
		l.lastAd[class] = admitted
		l.lastOv[class] = overruns
		cur, ok := l.infl[class]
		if !ok {
			cur = 1
		}
		if float64(dOv) > cfg.TargetRate*float64(dAdm) {
			cur *= cfg.Increase
			if cur > cfg.Max {
				cur = cfg.Max
			}
		} else {
			cur -= cfg.Decrease
			if cur < 1 {
				cur = 1
			}
		}
		l.infl[class] = cur
		if l.reg != nil {
			g, ok := l.metInfl[class]
			if !ok {
				g = l.reg.Gauge("feasregion_adapt_class_inflation", "per-class demand inflation factor (1 = declared estimates trusted)", metrics.Label{Name: "class", Value: class})
				l.metInfl[class] = g
			}
			g.Set(cur)
		}
	}
}

// WrapEstimator returns an estimator that multiplies base's per-stage
// demand estimates by the task class's current inflation factor — the
// demand estimator's actuator. Install it on the admission controller
// (Controller.SetEstimator); the overrun guard's budgets follow
// automatically through EstimateFor, so a class inflated to its true
// demand stops tripping the guard and the factor decays back toward 1.
func (l *Loop) WrapEstimator(base core.Estimator) core.Estimator {
	if base == nil {
		panic("adapt: nil base estimator")
	}
	return func(t *task.Task, stage int) float64 {
		e := base(t, stage)
		if f := l.ClassInflation(t.Class); f > 1 {
			e *= f
		}
		return e
	}
}

// ClassInflation returns the class's current demand inflation factor
// (1 when the class is unknown or has never overrun its estimates).
// Online callers that size their own Request demands can apply it
// directly.
func (l *Loop) ClassInflation(class string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f, ok := l.infl[class]; ok {
		return f
	}
	return 1
}

// Alpha returns the currently applied urgency-inversion parameter.
func (l *Loop) Alpha() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.alpha
}

// Betas returns a copy of the currently applied per-stage blocking
// terms.
func (l *Loop) Betas() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.betas...)
}

// Snapshot returns the loop's counters and current outputs.
func (l *Loop) Snapshot() LoopStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Alpha = l.alpha
	s.Betas = append([]float64(nil), l.betas...)
	s.InflationByClass = map[string]float64{}
	for k, v := range l.infl {
		if v != 1 {
			s.InflationByClass[k] = v
		}
	}
	return s
}

// ScheduleSim arranges for the loop to tick every interval of simulated
// time, from interval up to and including until — the simulation-side
// driver (ticker.Sim).
func (l *Loop) ScheduleSim(sim *des.Simulator, interval, until des.Time) {
	ticker.Sim(sim, interval, until, l.Tick)
}

// Start ticks the loop every interval on a background goroutine until
// the returned stop function is called (idempotent; waits for the
// goroutine to exit) — the wall-clock driver for online controllers
// (ticker.Start).
func (l *Loop) Start(interval time.Duration) (stop func()) {
	return ticker.Start(interval, l.Tick)
}
