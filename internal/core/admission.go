package core

import (
	"math"
	"slices"

	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/task"
	"feasregion/internal/tasktable"
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
// N-stage pipeline, on the simulation clock: an Engine (the region, its
// state and the one region test) plus the demand estimator, pooled des
// expiry timers, per-stage peaks and release hooks. Each admission test
// is O(N): it evaluates Σ f(U_j + ΔU_j) ≤ α(1−Σβ_j) against the stages'
// synthetic-utilization ledgers, independent of how many tasks are
// active. The ledgers are views of the engine's region state
// (tasktable.State): an admitted task is one row.
//
// Wire it to a simulation by forwarding stage-idle events to
// HandleStageIdle and stage completions to MarkDeparted; the controller
// schedules the deadline decrements itself.
type Controller struct {
	sim      *des.Simulator
	eng      Engine
	st       *tasktable.State // the engine's state: one row per admitted task
	ledgers  []StageLedger    // per-stage views of st
	estimate Estimator
	scratch  []float64 // reusable deltas buffer; the controller is single-threaded (DES)
	seq      int64     // admissions so far: the stamp of the latest row
	expiries *expiry   // free list of deadline-decrement timers

	onRelease []func(now des.Time)
	onChange  func(stage int, now des.Time, u float64)
	stats     Stats

	// Pushed instruments for rare events; nil (free no-ops) until
	// SetMetrics. Every other series reads the controller's own state.
	metEvicted *metrics.Counter
	metTrimmed *metrics.Gauge
}

// NewController returns a controller for the given region. reserved, when
// non-nil, sets each stage ledger's non-resettable utilization floor for
// pre-certified critical tasks (paper §5); it must have one entry per
// stage.
func NewController(sim *des.Simulator, region Region, reserved []float64) *Controller {
	c := &Controller{
		sim:      sim,
		eng:      NewEngine(region, reserved),
		ledgers:  make([]StageLedger, region.Stages),
		scratch:  make([]float64, region.Stages),
		estimate: ActualDemand,
	}
	c.st = c.eng.State()
	for j := range c.ledgers {
		c.ledgers[j] = StageLedger{c: c, j: j}
	}
	return c
}

// SetEstimator switches the demand estimator (e.g. to MeanDemand for
// approximate admission). It must be called before the first admission.
func (c *Controller) SetEstimator(e Estimator) {
	if e == nil {
		panic("core: nil estimator")
	}
	c.estimate = e
}

// SetMetrics registers the controller's observability series with the
// registry: admission outcome counters, per-stage synthetic utilization
// U_j(t) and stage scale gauges, the region value Σ f(U_j), and the
// region headroom bound − Σ f(U_j). All but the rare eviction and trim
// series are read from the controller's own state at scrape time, so the
// admission path writes no instrument; like every other method, a scrape
// must not run concurrently with the simulation driving the controller.
// A nil registry (metrics disabled) does nothing. Call it once, at
// wiring time.
func (c *Controller) SetMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("feasregion_admitted_total", "tasks accepted by the admission test", func() float64 { return float64(c.stats.Admitted) })
	r.CounterFunc("feasregion_rejected_total", "tasks rejected by the admission test", func() float64 { return float64(c.stats.Rejected) })
	c.metEvicted = r.Counter("feasregion_evicted_total", "in-flight tasks evicted (shedding or overrun)")
	r.GaugeFunc("feasregion_region_value", "current region value sum f(U_j)", c.Value)
	r.GaugeFunc("feasregion_region_headroom", "region bound minus current value; admission stops at 0", func() float64 { return c.eng.Bound() - c.Value() })
	r.CounterFunc("feasregion_degraded_admits_total", "tasks admitted below full quality", func() float64 { return float64(c.stats.Degraded) })
	c.metTrimmed = r.Gauge("feasregion_optional_trimmed_total", "cumulative synthetic utilization trimmed from admitted tasks by quality degradation")
	for j := range c.ledgers {
		r.GaugeFunc("feasregion_stage_synthetic_utilization", "per-stage synthetic utilization U_j(t)", c.ledgers[j].Utilization, metrics.Stage(j))
		r.GaugeFunc("feasregion_stage_scale", "per-stage admission demand multiplier (1 = nominal)", func() float64 { return c.eng.scales[j] }, metrics.Stage(j))
	}
}

// Region returns the controller's feasible region. Its Betas are shared
// and must not be written.
func (c *Controller) Region() Region { return c.eng.Region() }

// SetRegionInputs replaces the region's urgency-inversion parameter α
// (in (0, 1]) and, unless betas is nil, its per-stage blocking terms β_j
// at runtime — the actuator of the adaptive estimation loop
// (internal/adapt). Admitted contributions are untouched. When the
// bound relaxes, waiters are retried.
func (c *Controller) SetRegionInputs(alpha float64, betas []float64) {
	if c.eng.SetRegionInputs(alpha, betas) {
		c.fireRelease()
	}
}

// SetStageScale sets a positive, finite demand multiplier for future
// admissions at the stage (1 restores nominal) — the actuator of the
// stage-health feedback loop. Admitted contributions are unchanged. The
// overrun guard's budgets (EstimateFor) stay at the declared estimates:
// a degraded stage is the platform's fault, not the task's. When the
// scale falls, waiters are retried.
func (c *Controller) SetStageScale(stage int, scale float64) {
	if c.eng.SetStageScale(stage, scale) {
		c.fireRelease()
	}
}

// Stats returns a snapshot of admission counters.
func (c *Controller) Stats() Stats { return c.stats }

// Ledger exposes the stage's synthetic-utilization ledger (peak tracking
// and inspection for experiments).
func (c *Controller) Ledger(stage int) *StageLedger { return &c.ledgers[stage] }

// Utilizations returns the current synthetic utilization of every stage.
func (c *Controller) Utilizations() []float64 {
	return slices.Clone(c.st.Utils())
}

// Value returns the current region value Σ f(U_j), without allocating.
func (c *Controller) Value() float64 { return c.eng.Value() }

// Headroom returns how much additional synthetic utilization stage j
// could absorb right now (see Region.Headroom), without allocating.
func (c *Controller) Headroom(stage int) float64 { return c.eng.Headroom(stage) }

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

// notifyChange reports every stage's utilization to the observer.
func (c *Controller) notifyChange() {
	if c.onChange == nil {
		return
	}
	now := c.sim.Now()
	for j := range c.ledgers {
		c.onChange(j, now, c.ledgers[j].Utilization())
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
// the quality ladder composes with approximate (mean-demand) estimators;
// the engine applies the stage scales. It returns nil for a malformed
// task, which every admit path rejects: a deadline that is not positive
// and finite (an infinite one would charge nothing and never expire), or
// a negative estimate, which would charge negative utilization and
// create capacity. A NaN or infinite increment needs no check: the
// region test it enters is NaN or +Inf, and fails.
func (c *Controller) deltasAt(t *task.Task, level int) []float64 {
	if !validDeadline(t.Deadline) {
		return nil
	}
	d := c.scratch
	for j := range d {
		est := c.estimate(t, j)
		if level < task.QualityLevels {
			if full := t.StageDemand(j); full > 0 {
				est *= t.StageDemandAt(j, level) / full
			}
		}
		if est < 0 {
			return nil
		}
		d[j] = est / t.Deadline
	}
	return d
}

// validDeadline reports whether a relative deadline is positive and
// finite: an infinite one would charge nothing and never expire.
func validDeadline(d float64) bool { return d > 0 && d <= math.MaxFloat64 }

// validOptional reports whether every stage's optional demand lies in
// [0, Demand] (NaN fails), so that demand shrinks with quality and
// never falls below zero. Only the quality paths read optional demand:
// a rigid admission charges the full demand and ignores it.
func validOptional(t *task.Task) bool {
	for _, s := range t.Subtasks {
		if !(s.Optional >= 0 && s.Optional <= s.Demand) {
			return false
		}
	}
	return true
}

// chargeable reports whether a contribution is finite and non-negative:
// a negative one would create capacity and a NaN one poisons the region
// test.
func chargeable(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// WouldAdmit evaluates the admission test without committing: it reports
// whether the post-admission utilization point stays inside the region.
func (c *Controller) WouldAdmit(t *task.Task) bool {
	d := c.deltas(t)
	return d != nil && c.eng.Fits(d)
}

// TryAdmit runs the admission test and, on success, commits the task's
// contributions and schedules their removal at its absolute deadline.
// The increments (and the estimator behind them) are computed exactly
// once and shared between the test and the commit.
func (c *Controller) TryAdmit(t *task.Task) bool {
	d := c.deltas(t)
	if d == nil || !c.eng.Fits(d) {
		c.stats.Rejected++
		return false
	}
	c.commit(t, d, task.QualityLevels)
	return true
}

// commitAdmit implements regionAdmitter for the wait queue. It is only
// called after WouldAdmit accepted the task, which rejects malformed
// tasks; the guard here keeps a misuse from charging one.
func (c *Controller) commitAdmit(t *task.Task) {
	if d := c.deltas(t); d != nil {
		c.commit(t, d, task.QualityLevels)
	}
}

// commit inserts the task's row, stamped with the admission sequence
// number, charges every stage, and schedules the row's expiry.
func (c *Controller) commit(t *task.Task, d []float64, level int) {
	c.seq++
	c.eng.Commit(key(t.ID), c.seq, uint8(level), d)
	for j := range c.ledgers {
		c.ledgers[j].notePeak()
	}
	e := c.expiries
	if e != nil {
		c.expiries = e.next
	} else {
		e = &expiry{c: c}
	}
	e.id, e.stamp = t.ID, c.seq
	c.sim.AtTimer(t.AbsoluteDeadline(), e)
	c.stats.Admitted++
	c.notifyChange()
}

// expiry is the pooled des.Timer behind a committed task's deadline
// decrement. Records cycle through the controller's free list, so a
// steady admit/expire stream schedules without allocating (a capturing
// closure per admission would be a heap object).
type expiry struct {
	c     *Controller
	id    task.ID
	stamp int64 // the row's admission stamp
	next  *expiry
}

// Fire removes the task's row at its absolute deadline. A record whose
// ID has since been re-admitted finds a newer stamp and does nothing.
func (e *expiry) Fire(des.Time) {
	c := e.c
	// Recycle first: the release hooks below may admit, and reuse e.
	e.next, c.expiries = c.expiries, e
	if slot, ok := c.st.Lookup(key(e.id)); ok {
		if c.st.Stamp(slot) != e.stamp {
			return
		}
		c.st.Drop(slot)
	}
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
	if contribution < 0 {
		panic("core: negative synthetic-utilization contribution")
	}
	slot, ok := c.st.Lookup(key(id))
	if !ok || !c.st.Present(slot, stage) {
		return false
	}
	c.recharge(slot, stage, contribution)
	if c.onChange != nil {
		c.onChange(stage, c.sim.Now(), c.ledgers[stage].Utilization())
	}
	return true
}

// recharge replaces the row's contribution at the stage (Ledger.Update).
func (c *Controller) recharge(slot, stage int, v float64) {
	c.st.Recharge(slot, stage, v)
	c.ledgers[stage].notePeak()
}

// Evict removes a task's contribution from every stage immediately —
// the load-shedding primitive of the paper's §5: when an important
// arrival would leave the feasible region, less important current tasks
// are shed (their execution aborted by the caller) until the system
// re-enters the region. The task's already-scheduled deadline decrement
// becomes a no-op. Evicting an unknown or expired task does nothing.
func (c *Controller) Evict(id task.ID) {
	slot, ok := c.st.Lookup(key(id))
	if !ok {
		return
	}
	if c.st.Drop(slot) {
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
	p := c.eng.newRegionSum(d)
	if p.fits() {
		return nil, true
	}
	for _, id := range candidates {
		slot, present := c.st.Lookup(key(id))
		for j := 0; present && j < len(c.ledgers); j++ {
			if v := c.st.Contrib(slot, j); v != 0 { // 0 once cleared
				p.sub(j, v)
			}
		}
		shed = append(shed, id)
		if p.fits() {
			return shed, true
		}
	}
	return nil, false
}

// MarkDeparted records that the task has finished service at the stage,
// making its contribution there eligible for the idle reset.
func (c *Controller) MarkDeparted(stage int, id task.ID) {
	if slot, ok := c.st.Lookup(key(id)); ok {
		c.st.MarkDeparted(slot, stage)
	}
}

// HandleStageIdle performs the idle reset for a stage: tasks that
// departed it stop charging it, at a cost independent of how many
// departed. Wire it to sched.Stage.OnIdle.
func (c *Controller) HandleStageIdle(stage int) {
	if c.st.ResetIdle(stage) > 0 {
		c.ledgers[stage].resets++
		if c.onChange != nil {
			c.onChange(stage, c.sim.Now(), c.ledgers[stage].Utilization())
		}
		c.fireRelease()
	}
}
