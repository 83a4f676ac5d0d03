package core

import (
	"fmt"
	"math"

	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/task"
)

// Estimator returns the admission-time estimate of a task's computation
// demand at a stage. Exact admission uses the task's actual demand;
// approximate admission (paper §4.4) substitutes the workload mean when
// actual demands are unknown at arrival.
type Estimator func(t *task.Task, stage int) float64

// ActualDemand is the exact-admission estimator.
func ActualDemand(t *task.Task, stage int) float64 { return t.StageDemand(stage) }

// MeanDemand returns an estimator that ignores the task and always
// reports the given per-stage means.
func MeanDemand(means []float64) Estimator {
	m := append([]float64(nil), means...)
	return func(_ *task.Task, stage int) float64 {
		if stage < 0 || stage >= len(m) {
			return 0
		}
		return m[stage]
	}
}

// Stats counts admission outcomes.
type Stats struct {
	Admitted uint64
	Rejected uint64
	// Degraded counts admissions that entered below full quality (a
	// subset of Admitted).
	Degraded uint64
	// Trims counts in-place quality reductions of already-admitted tasks
	// (Degrade calls that changed a ledger).
	Trims uint64
}

// Controller is the paper's utilization-based admission controller for an
// N-stage pipeline. Each admission test is O(N): it evaluates
// Σ f(U_j + ΔU_j) ≤ α(1−Σβ_j) against the stages' synthetic-utilization
// ledgers, independent of how many tasks are active.
//
// Wire it to a simulation by forwarding stage-idle events to
// HandleStageIdle and stage completions to MarkDeparted; the controller
// schedules the deadline decrements itself.
type Controller struct {
	sim      *des.Simulator
	region   Region
	ledgers  []*Ledger
	estimate Estimator
	scales   []float64       // per-stage demand multipliers; nil until first SetStageScale
	scratch  []float64       // reusable deltas buffer; the controller is single-threaded (DES)
	levels   map[task.ID]int // quality level of admitted tasks below full quality
	expiries *expiry         // free list of deadline-decrement timers

	onRelease []func(now des.Time)
	onChange  func(stage int, now des.Time, u float64)
	stats     Stats

	// Instruments are nil (free no-ops) until SetMetrics.
	metAdmitted *metrics.Counter
	metRejected *metrics.Counter
	metEvicted  *metrics.Counter
	metUtil     []*metrics.Gauge
	metScale    []*metrics.Gauge
	metValue    *metrics.Gauge
	metHeadroom *metrics.Gauge
	metDegraded *metrics.Counter
	metTrimmed  *metrics.Gauge
}

// NewController returns a controller for the given region. reserved, when
// non-nil, sets each stage ledger's non-resettable utilization floor for
// pre-certified critical tasks (paper §5); it must have one entry per
// stage.
func NewController(sim *des.Simulator, region Region, reserved []float64) *Controller {
	if reserved != nil && len(reserved) != region.Stages {
		panic(fmt.Sprintf("core: %d reserved values for %d stages", len(reserved), region.Stages))
	}
	ledgers := make([]*Ledger, region.Stages)
	for j := range ledgers {
		f := 0.0
		if reserved != nil {
			f = reserved[j]
		}
		ledgers[j] = NewLedger(f)
	}
	return &Controller{
		sim:      sim,
		region:   region,
		ledgers:  ledgers,
		estimate: ActualDemand,
		levels:   make(map[task.ID]int),
	}
}

// SetEstimator switches the demand estimator (e.g. to MeanDemand for
// approximate admission). It must be called before the first admission.
func (c *Controller) SetEstimator(e Estimator) {
	if e == nil {
		panic("core: nil estimator")
	}
	c.estimate = e
}

// SetMetrics registers the controller's observability instruments with
// the registry: admission outcome counters, per-stage synthetic
// utilization U_j(t) gauges, the region value Σ f(U_j), and the region
// headroom bound − Σ f(U_j). A nil registry (metrics disabled) leaves
// the hot path untouched. Call it once, at wiring time.
func (c *Controller) SetMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	c.metAdmitted = r.Counter("feasregion_admitted_total", "tasks accepted by the admission test")
	c.metRejected = r.Counter("feasregion_rejected_total", "tasks rejected by the admission test")
	c.metEvicted = r.Counter("feasregion_evicted_total", "in-flight tasks evicted (shedding or overrun)")
	c.metValue = r.Gauge("feasregion_region_value", "current region value sum f(U_j)")
	c.metHeadroom = r.Gauge("feasregion_region_headroom", "region bound minus current value; admission stops at 0")
	c.metDegraded = r.Counter("feasregion_degraded_admits_total", "tasks admitted below full quality")
	c.metTrimmed = r.Gauge("feasregion_optional_trimmed_total", "cumulative synthetic utilization trimmed from admitted tasks by quality degradation")
	c.metUtil = make([]*metrics.Gauge, len(c.ledgers))
	c.metScale = make([]*metrics.Gauge, len(c.ledgers))
	for j := range c.ledgers {
		c.metUtil[j] = r.Gauge("feasregion_stage_synthetic_utilization", "per-stage synthetic utilization U_j(t)", metrics.Stage(j))
		c.metScale[j] = r.Gauge("feasregion_stage_scale", "per-stage admission demand multiplier (1 = nominal)", metrics.Stage(j))
		c.metScale[j].Set(c.scaleFor(j))
	}
	c.updateRegionGauges()
}

// updateRegionGauges refreshes the utilization and headroom gauges; a
// no-op (single nil check) when metrics are not wired.
func (c *Controller) updateRegionGauges() {
	if c.metValue == nil {
		return
	}
	sum := 0.0
	for j, l := range c.ledgers {
		u := l.Utilization()
		c.metUtil[j].Set(u)
		sum += StageDelayFactor(u)
	}
	c.metValue.Set(sum)
	c.metHeadroom.Set(c.region.Bound() - sum)
}

// Region returns the controller's feasible region.
func (c *Controller) Region() Region { return c.region }

// SetRegionInputs replaces the region's urgency-inversion parameter α
// and per-stage blocking terms β_j at runtime — the actuator of the
// adaptive estimation loop (internal/adapt): estimators that observe
// blocking tails or urgency inversion feed tightened (or recovered)
// inputs back into the admission bound α·(1 − Σβ_j) without touching
// admitted contributions. A nil betas keeps the current blocking terms;
// otherwise betas must have one non-negative entry per stage. alpha must
// be in (0, 1]. When the bound relaxes, waiters are retried (a larger
// bound may admit queued tasks); when it tightens, future admissions
// simply face the smaller bound.
func (c *Controller) SetRegionInputs(alpha float64, betas []float64) {
	r := c.region.WithAlpha(alpha)
	if betas != nil {
		r = r.WithBetas(betas)
	}
	oldBound := c.region.Bound()
	c.region = r
	c.updateRegionGauges()
	if r.Bound() > oldBound {
		c.fireRelease()
	}
}

// SetStageScale sets a demand multiplier for future admissions at the
// stage — the simulation-side analogue of online.Controller.SetStageScale
// and the actuator of the stage-health feedback loop: when a stage is
// observed running slow, scaling its admission-time demand estimates up
// keeps the admission test honest until it recovers (scale 1 restores
// nominal). Already-admitted contributions are unchanged. The overrun
// guard's budgets (EstimateFor) stay at the declared estimates: a
// degraded stage is the platform's fault, not the task's. scale must be
// positive and finite.
func (c *Controller) SetStageScale(stage int, scale float64) {
	if scale <= 0 || scale != scale || scale > 1e9 {
		panic(fmt.Sprintf("core: stage scale %v must be positive and finite", scale))
	}
	if c.scales == nil {
		if scale == 1 {
			return
		}
		c.scales = make([]float64, len(c.ledgers))
		for j := range c.scales {
			c.scales[j] = 1
		}
	}
	c.scales[stage] = scale
	if c.metScale != nil {
		c.metScale[stage].Set(scale)
	}
}

// StageScales returns the current per-stage demand multipliers.
func (c *Controller) StageScales() []float64 {
	out := make([]float64, len(c.ledgers))
	for j := range out {
		out[j] = c.scaleFor(j)
	}
	return out
}

// scaleFor returns the stage's demand multiplier (1 when never scaled).
func (c *Controller) scaleFor(stage int) float64 {
	if c.scales == nil {
		return 1
	}
	return c.scales[stage]
}

// Stats returns a snapshot of admission counters.
func (c *Controller) Stats() Stats { return c.stats }

// Ledger exposes the stage's synthetic-utilization ledger (peak tracking
// and inspection for experiments).
func (c *Controller) Ledger(stage int) *Ledger { return c.ledgers[stage] }

// Utilizations returns the current synthetic utilization of every stage.
func (c *Controller) Utilizations() []float64 {
	us := make([]float64, len(c.ledgers))
	for j, l := range c.ledgers {
		us[j] = l.Utilization()
	}
	return us
}

// Value returns the current region value Σ f(U_j).
func (c *Controller) Value() float64 { return c.region.Value(c.Utilizations()) }

// Headroom returns how much additional synthetic utilization stage j
// could absorb right now (see Region.Headroom).
func (c *Controller) Headroom(stage int) float64 {
	return c.region.Headroom(c.Utilizations(), stage)
}

// OnRelease registers fn to run whenever synthetic utilization decreases
// (deadline decrement or idle reset). Wait-queue admission retries from
// this hook.
func (c *Controller) OnRelease(fn func(now des.Time)) {
	c.onRelease = append(c.onRelease, fn)
}

// OnUtilizationChange registers an observer called with a stage's new
// synthetic utilization after every change (admission, deadline
// decrement, idle reset, eviction). The curve recorder uses this to
// reconstruct the paper's Figure 1 synthetic-utilization step curve.
func (c *Controller) OnUtilizationChange(fn func(stage int, now des.Time, u float64)) {
	c.onChange = fn
}

// notifyChange reports every stage's utilization to the observer and
// refreshes the utilization gauges.
func (c *Controller) notifyChange() {
	c.updateRegionGauges()
	if c.onChange == nil {
		return
	}
	now := c.sim.Now()
	for j, l := range c.ledgers {
		c.onChange(j, now, l.Utilization())
	}
}

func (c *Controller) fireRelease() {
	now := c.sim.Now()
	for _, fn := range c.onRelease {
		fn(now)
	}
}

// deltas computes the tentative per-stage utilization increments of t
// into the controller's scratch buffer, running the estimator once per
// stage. The returned slice is valid until the next deltas call; commit
// copies the values into the ledgers, so the reuse never escapes.
func (c *Controller) deltas(t *task.Task) []float64 {
	return c.deltasAt(t, task.QualityLevels)
}

// deltasAt computes the tentative per-stage utilization increments of t
// executed at the given quality level, reusing the same scratch buffer as
// deltas (the degraded admission path stays allocation-free). Each
// stage's estimate is scaled by the ratio of degraded to full demand, so
// the quality ladder composes with approximate (mean-demand) estimators
// and stage scales alike.
func (c *Controller) deltasAt(t *task.Task, level int) []float64 {
	if t.Deadline <= 0 {
		return nil
	}
	if c.scratch == nil {
		c.scratch = make([]float64, len(c.ledgers))
	}
	d := c.scratch
	for j := range d {
		est := c.estimate(t, j)
		if level < task.QualityLevels {
			if full := t.StageDemand(j); full > 0 {
				est *= t.StageDemandAt(j, level) / full
			}
		}
		d[j] = est / t.Deadline
	}
	if c.scales != nil {
		for j := range d {
			d[j] *= c.scales[j]
		}
	}
	return d
}

// admissible evaluates the region test for the given increments.
func (c *Controller) admissible(d []float64) bool {
	sum := 0.0
	for j, l := range c.ledgers {
		sum += StageDelayFactor(l.Utilization() + d[j])
	}
	return sum <= c.region.Bound()
}

// WouldAdmit evaluates the admission test without committing: it reports
// whether the post-admission utilization point stays inside the region.
func (c *Controller) WouldAdmit(t *task.Task) bool {
	d := c.deltas(t)
	return d != nil && c.admissible(d)
}

// TryAdmit runs the admission test and, on success, commits the task's
// contributions and schedules their removal at its absolute deadline.
// The increments (and the estimator behind them) are computed exactly
// once and shared between the test and the commit.
func (c *Controller) TryAdmit(t *task.Task) bool {
	d := c.deltas(t)
	if d == nil || !c.admissible(d) {
		c.stats.Rejected++
		c.metRejected.Inc()
		return false
	}
	c.commit(t, d)
	return true
}

// ForceAdmit commits a task's contributions without testing the region.
// It exists for certified critical tasks that were already accounted for
// in the reserved floor to keep statistics honest; typical callers should
// submit such tasks directly to the pipeline instead. A task with a
// non-positive deadline has no finite utilization contribution and is
// rejected with an error rather than committed.
func (c *Controller) ForceAdmit(t *task.Task) error {
	d := c.deltas(t)
	if d == nil {
		return fmt.Errorf("core: cannot force-admit task %d: non-positive deadline %v", t.ID, t.Deadline)
	}
	c.commit(t, d)
	return nil
}

// commitAdmit implements regionAdmitter for the wait queue. It is only
// called after WouldAdmit accepted the task, which rejects non-positive
// deadlines; the guard here keeps a misuse from panicking in commit.
func (c *Controller) commitAdmit(t *task.Task) {
	if d := c.deltas(t); d != nil {
		c.commit(t, d)
	}
}

func (c *Controller) commit(t *task.Task, d []float64) {
	for j, l := range c.ledgers {
		l.Add(t.ID, d[j])
	}
	e := c.expiries
	if e != nil {
		c.expiries = e.next
	} else {
		e = &expiry{c: c}
	}
	e.id = t.ID
	c.sim.AtTimer(t.AbsoluteDeadline(), e)
	c.stats.Admitted++
	c.metAdmitted.Inc()
	c.notifyChange()
}

// expiry is the pooled des.Timer behind a committed task's deadline
// decrement. Records cycle through the controller's free list, so a
// steady admit/expire stream schedules without allocating (a capturing
// closure per admission would be a heap object).
type expiry struct {
	c    *Controller
	id   task.ID
	next *expiry
}

// Fire removes the task's contributions at its absolute deadline.
func (e *expiry) Fire(des.Time) {
	c, id := e.c, e.id
	// Recycle first: the release hooks below may admit, and reuse e.
	e.next, c.expiries = c.expiries, e
	for _, l := range c.ledgers {
		l.Remove(id)
	}
	delete(c.levels, id)
	c.notifyChange()
	c.fireRelease()
}

// EstimateFor returns the demand estimate the admission test would use
// for the task at the stage — the budget the overrun guard holds running
// tasks to.
func (c *Controller) EstimateFor(t *task.Task, stage int) float64 {
	return c.estimate(t, stage)
}

// Recharge replaces the task's synthetic-utilization contribution at one
// stage with the observed value — the overrun guard's re-charge policy.
// The utilization point may leave the feasible region as a result; the
// admission test then rejects arrivals until load drains, which is
// exactly the desired back-pressure. It reports whether the task still
// contributed at the stage.
func (c *Controller) Recharge(id task.ID, stage int, contribution float64) bool {
	if !c.ledgers[stage].Update(id, contribution) {
		return false
	}
	c.updateRegionGauges()
	if c.onChange != nil {
		c.onChange(stage, c.sim.Now(), c.ledgers[stage].Utilization())
	}
	return true
}

// Evict removes a task's contribution from every stage immediately —
// the load-shedding primitive of the paper's §5: when an important
// arrival would leave the feasible region, less important current tasks
// are shed (their execution aborted by the caller) until the system
// re-enters the region. The task's already-scheduled deadline decrement
// becomes a no-op. Evicting an unknown or expired task does nothing.
func (c *Controller) Evict(id task.ID) {
	removed := false
	for _, l := range c.ledgers {
		if l.Remove(id) {
			removed = true
		}
	}
	delete(c.levels, id)
	if removed {
		c.metEvicted.Inc()
		c.notifyChange()
		c.fireRelease()
	}
}

// PlanShedding determines the shortest prefix of candidates (in the
// given order — callers pass least-important-first) whose eviction would
// let t pass the admission test. It reports ok=false when even shedding
// every candidate does not make room; nothing is modified either way.
func (c *Controller) PlanShedding(t *task.Task, candidates []task.ID) (shed []task.ID, ok bool) {
	d := c.deltas(t)
	if d == nil {
		return nil, false
	}
	// Maintain Σ f(U_j) incrementally as contributions are subtracted:
	// each candidate costs O(stages-it-touches) instead of a full O(N)
	// re-sum. Infinite terms (U_j ≥ 1, f = +Inf) are tracked by count —
	// Inf − Inf is NaN, so they must never enter the running sum.
	bound := c.region.Bound()
	utils := make([]float64, len(c.ledgers))
	terms := make([]float64, len(c.ledgers))
	sum := 0.0
	infinite := 0
	for j, l := range c.ledgers {
		utils[j] = l.Utilization() + d[j]
		terms[j] = StageDelayFactor(utils[j])
		if math.IsInf(terms[j], 1) {
			infinite++
		} else {
			sum += terms[j]
		}
	}
	if infinite == 0 && sum <= bound {
		return nil, true
	}
	for _, id := range candidates {
		for j, l := range c.ledgers {
			contrib, present := l.Contribution(id)
			if !present || contrib == 0 {
				continue
			}
			utils[j] -= contrib
			term := StageDelayFactor(utils[j])
			if math.IsInf(terms[j], 1) {
				infinite--
			} else {
				sum -= terms[j]
			}
			if math.IsInf(term, 1) {
				infinite++
			} else {
				sum += term
			}
			terms[j] = term
		}
		shed = append(shed, id)
		if infinite == 0 && sum <= bound {
			return shed, true
		}
	}
	return nil, false
}

// Reconfigure replaces every stage's reserved utilization floor at
// runtime (paper §5: the TSCE reconfigures dynamically on mission-mode
// changes, e.g. enabling the urgent self-defense mode). Already-admitted
// contributions are untouched; lowering floors immediately frees
// admission capacity (waiters are retried), raising them tightens future
// admissions. It returns the region value at the new point so callers
// can observe whether the system is transiently outside the region
// (admissions then resume only as load drains).
func (c *Controller) Reconfigure(reserved []float64) float64 {
	if len(reserved) != len(c.ledgers) {
		panic(fmt.Sprintf("core: %d reserved values for %d stages", len(reserved), len(c.ledgers)))
	}
	lowered := false
	for j, l := range c.ledgers {
		if reserved[j] < l.Reserved() {
			lowered = true
		}
		l.SetReserved(reserved[j])
	}
	c.notifyChange()
	if lowered {
		c.fireRelease()
	}
	return c.Value()
}

// MarkDeparted records that the task has finished service at the stage,
// making its contribution there eligible for the idle reset.
func (c *Controller) MarkDeparted(stage int, id task.ID) {
	c.ledgers[stage].MarkDeparted(id)
}

// HandleStageIdle performs the idle reset for a stage. Wire it to
// sched.Stage.OnIdle.
func (c *Controller) HandleStageIdle(stage int) {
	if c.ledgers[stage].ResetIdle() > 0 {
		c.updateRegionGauges()
		if c.onChange != nil {
			c.onChange(stage, c.sim.Now(), c.ledgers[stage].Utilization())
		}
		c.fireRelease()
	}
}
