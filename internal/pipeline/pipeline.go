package pipeline

import (
	"fmt"
	"math"

	"feasregion/internal/trace"

	"feasregion/internal/adapt"
	"feasregion/internal/core"
	"feasregion/internal/degrade"
	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/faults"
	"feasregion/internal/metrics"
	"feasregion/internal/obs"
	"feasregion/internal/priority"
	"feasregion/internal/sched"
	"feasregion/internal/stats"
	"feasregion/internal/task"
)

// Admitter is the admission-control interface a Pipeline drives: the
// paper's core.Controller, or an alternative policy such as the
// intermediate-deadline baseline.
type Admitter interface {
	// TryAdmit tests and, on success, commits an arriving task.
	TryAdmit(t *task.Task) bool
	// MarkDeparted records that the task finished service at the stage.
	MarkDeparted(stage int, id task.ID)
	// HandleStageIdle performs the stage's idle reset.
	HandleStageIdle(stage int)
}

// PriorityPolicy names a priority-assignment policy for
// Options.PriorityPolicy — the declarative alternative to constructing
// an Options.Policy value.
type PriorityPolicy int

const (
	// PriorityDefault defers to Options.Policy (deadline-monotonic when
	// that is nil too).
	PriorityDefault PriorityPolicy = iota
	// PriorityDM selects deadline-monotonic assignment (α = 1).
	PriorityDM
	// PriorityEDFApprox freezes each task's EDF priority at arrival
	// (task.EDFApprox): fixed-priority, so the region applies with the
	// α the concurrent population earns.
	PriorityEDFApprox
	// PriorityOPA replaces the admission controller with the online
	// Audsley search (priority.Admitter, RegionExact test): each
	// arrival is placed at its deadline slot with a strict priority
	// level — provably the slot the search settles on under the
	// monotone per-task tests — admitted iff it and every task below it
	// pass the Theorem 1 per-task composition, and the searched level
	// overrides the policy-assigned priority. Plain configuration only
	// — incompatible with Policy,
	// Admitter, NoAdmission, Shards, Region, Reserved, Estimator,
	// MaxWait, shedding, degradation, governor, overrun guard, and
	// Adapt; Pipeline.Controller() returns nil.
	PriorityOPA
	// PriorityExplicit replays Options.ExplicitOrder (most urgent
	// first); tasks outside the order fall back to deadline-monotonic.
	PriorityExplicit
)

// Options configures a Pipeline. Zero values select the paper's defaults:
// deadline-monotonic scheduling with exact admission control.
type Options struct {
	// Stages is the pipeline length N. Required.
	Stages int

	// Policy assigns task priorities; nil selects deadline-monotonic.
	Policy task.Policy

	// PriorityPolicy selects a named assignment policy (DM, EDF-approx,
	// OPA, explicit order) declaratively; the zero value defers to
	// Policy. Setting both panics.
	PriorityPolicy PriorityPolicy

	// ExplicitOrder is the task order replayed by PriorityExplicit,
	// most urgent first; it is ignored by every other PriorityPolicy.
	ExplicitOrder []task.ID

	// NoAdmission disables admission control entirely (baseline: every
	// offered task enters the pipeline).
	NoAdmission bool

	// Admitter replaces the default feasible-region controller with a
	// custom admission policy (e.g. the intermediate-deadline baseline).
	// When set, Region/Reserved/Estimator/MaxWait are ignored.
	Admitter Admitter

	// Shards, when > 1, replaces the default controller with the
	// sharded wall-clock admission controller (internal/shard) driven
	// by a simulated clock — the same data plane a deployment would run
	// multi-core, exercised under the simulator. It admits the same
	// task sets as the default controller up to the expiry wheel's 1 ms
	// purge granularity (the sim controller releases contributions at
	// exact deadlines). Plain configuration only: incompatible with
	// Admitter, Estimator, MaxWait, shedding, degradation, governor,
	// overrun guard, and Adapt, which all require the sim-time
	// controller; Pipeline.Controller() returns nil.
	Shards int

	// Region overrides the admission region; nil selects the
	// deadline-monotonic independent-task region for Stages stages.
	Region *core.Region

	// Reserved sets per-stage reserved synthetic utilization (certified
	// critical tasks, paper §5). Must be nil or length Stages.
	Reserved []float64

	// Estimator overrides the admission-time demand estimator (paper
	// §4.4 approximate admission); nil uses actual demands.
	Estimator core.Estimator

	// MaxWait, when positive, holds non-admissible arrivals at the
	// controller for up to this long (TSCE's 200 ms hold, paper §5).
	MaxWait float64

	// DisableIdleReset detaches the idle-reset hooks — the ablation of
	// the paper's key pessimism-reduction mechanism.
	DisableIdleReset bool

	// PreemptionOverhead charges this much extra computation to a job
	// each time it is preempted, on every stage (the analysis assumes
	// zero; see the overhead-sensitivity experiment).
	PreemptionOverhead float64

	// EnableShedding activates §5 semantic-importance load shedding:
	// when an arrival more important than current work would leave the
	// feasible region, less important in-flight tasks are shed (least
	// important first) until the arrival fits. Requires the default
	// feasible-region controller.
	EnableShedding bool

	// EnableDegradation activates quality-aware (imprecise-computation)
	// admission: arrivals carrying optional demand are admitted through
	// the core cascade (full quality first, then the highest fitting
	// ladder level), and before rejecting an important arrival the
	// pipeline trims less important in-flight tasks toward mandatory-only
	// (core.PlanDegradation) — degrade before you reject. Requires the
	// default feasible-region controller; incompatible with MaxWait (the
	// wait queue admits at full quality only).
	EnableDegradation bool

	// Governor, when non-nil, attaches an overload governor (implies
	// EnableDegradation): its hysteresis state machine reads the
	// controller's region headroom and the overrun guard's detections,
	// caps the quality level new admissions enter at, trims in-flight
	// tasks when the cap drops, and gates eviction behind the Shedding
	// state. The caller drives the ticks — typically
	// Governor().ScheduleSim(sim, interval, horizon).
	Governor *degrade.Config

	// OverrunPolicy arms the overrun guard: every guarded task's job is
	// submitted with its admitted per-stage demand estimate as an
	// execution budget, and crossing it triggers the policy (log,
	// re-charge the ledger with the observed demand, or abort-and-evict
	// so truthfully-declared tasks keep their guarantee). Requires the
	// default feasible-region controller; injected (certified critical)
	// tasks are never guarded. The zero value, core.OverrunIgnore,
	// disables detection.
	OverrunPolicy core.OverrunPolicy

	// OverrunTolerance is the fractional slack on top of the admitted
	// estimate before the guard trips (see core.NewGuard). Use a
	// generous value with approximate estimators such as MeanDemand,
	// where truthful tasks routinely exceed their per-task estimate.
	// The adaptive demand estimator (Adapt with Demand.Enabled) is the
	// measured replacement for this static knob: leave the tolerance at
	// 0 and let the per-class inflation supply exactly the slack each
	// class has earned.
	OverrunTolerance float64

	// Faults, when non-nil, attaches the fault-injection schedule to the
	// stages (demand overruns, slowdowns, stalls) and filters stage-idle
	// callbacks through its loss model.
	Faults *faults.Injector

	// PriorityRNG seeds randomized priority policies; nil uses a fixed
	// internal seed.
	PriorityRNG *dist.RNG

	// Trace, when non-nil, records admission and scheduling events for
	// offline inspection (CSV, ASCII timeline).
	Trace *trace.Recorder

	// Metrics, when non-nil, registers runtime instruments with the
	// registry: admission counters and region gauges (on the default
	// controller), per-stage queue depth and service-time/sojourn
	// histograms, and pipeline-level departure/deadline-miss counters.
	// Unlike the measurement-window Snapshot, these span the pipeline's
	// whole lifetime and cost nothing when nil.
	Metrics *metrics.Registry

	// Health, when non-nil, receives a (declared, actual) service-time
	// observation for every completed stage job — the input of the
	// stage-health feedback loop. Wire its scaler to the pipeline's
	// controller (obs.Monitor.SetScaler) to close the loop.
	Health *obs.Monitor

	// HealthReplica tags this pipeline's health observations with a
	// replica index when several pipelines share one obs.Monitor (the
	// cluster layer), so stage-scale actuation lands on the owning
	// replica's controller. Default 0, the single-pipeline identity.
	HealthReplica int

	// Adapt, when non-nil, builds an adaptive estimation loop over the
	// pipeline's telemetry: the β/α estimators read the per-stage
	// sojourn/service histograms (Metrics is therefore required), the
	// demand estimator reads the overrun guard's per-class detections
	// (OverrunPolicy must then not be OverrunIgnore), and region
	// updates flow back into the default controller. The caller drives
	// the loop — typically AdaptLoop().ScheduleSim(sim, interval,
	// horizon), since only the caller knows the run's horizon.
	Adapt *adapt.Config
}

// Pipeline is the simulated system under test.
type Pipeline struct {
	sim    *des.Simulator
	stages []*sched.Stage
	adm    Admitter         // active admission policy (nil: admit all)
	ctrl   *core.Controller // set when adm is the default controller
	wq     *core.WaitQueue
	policy task.Policy
	prng   *dist.RNG

	shedding      bool
	degradation   bool
	governor      *degrade.Governor
	guard         *core.Guard
	faults        *faults.Injector
	inflight      map[task.ID]*inflight
	free          *inflight // recycled in-flight records (see release)
	tracer        *trace.Recorder
	health        *obs.Monitor
	healthReplica int
	loop          *adapt.Loop

	// classEntered counts started tasks per class over the pipeline's
	// whole lifetime (unlike the measurement-window ClassMetrics) — the
	// denominator of the adapt demand estimator's per-class overrun
	// rate.
	classEntered map[string]uint64

	// Lifetime instruments; nil (free no-ops) without Options.Metrics.
	metDeparted  *metrics.Counter
	metMissed    *metrics.Counter
	metShed      *metrics.Counter
	metMissStage []*metrics.Counter // deadline misses attributed to the stage the task died in

	// sojournHist/serviceHist retain the per-stage histograms for the
	// adapt loop's telemetry sources; nil without Options.Metrics.
	sojournHist []*metrics.Histogram
	serviceHist []*metrics.Histogram

	measuring      bool
	measureStart   des.Time
	degraded       uint64  // window: admissions below full quality
	trimmedTasks   uint64  // window: in-flight quality trims
	utility        float64 // window: Σ task.Utility over on-time completions
	busyAtStart    []float64
	responseTimes  stats.Welford
	respP50        *stats.Quantile
	respP95        *stats.Quantile
	respP99        *stats.Quantile
	stageDelays    []stats.Welford
	missRatio      stats.Ratio
	offered        uint64
	enteredService uint64
	completed      uint64
	missed         uint64
	shed           uint64
	overrunEvicted uint64
	classes        map[string]*ClassMetrics
}

// ClassMetrics breaks the measurement window down by Task.Class.
type ClassMetrics struct {
	Offered   uint64
	Entered   uint64
	Completed uint64
	Missed    uint64
	Shed      uint64
}

// inflight tracks one chain task's progress through the stages. A chain
// task is resident on one stage at a time, so the record carries that
// stage's job and is its completion target: advancing a task allocates
// nothing. Records recycle through the pipeline's free list.
type inflight struct {
	p        *Pipeline
	t        *task.Task
	stage    int
	job      sched.Job // the current (or last) stage's job
	injected bool      // bypassed admission (certified critical): never guarded
	// level is the task's current quality level (task.QualityLevels when
	// admitted at full quality or rigid); trims lower it in place.
	level int
	// missStage is the stage whose tenure the task's absolute deadline
	// expired in (−1 while the deadline has not passed) — the miss
	// attribution behind feasregion_pipeline_misses{stage=...}.
	missStage int
	next      *inflight // free-list link
}

// New builds a pipeline on the simulator.
func New(sim *des.Simulator, opts Options) *Pipeline {
	if opts.Stages <= 0 {
		panic(fmt.Sprintf("pipeline: need at least one stage, got %d", opts.Stages))
	}
	p := &Pipeline{
		sim:         sim,
		policy:      opts.Policy,
		prng:        opts.PriorityRNG,
		stageDelays: make([]stats.Welford, opts.Stages),
	}
	if opts.PriorityPolicy != PriorityDefault && opts.Policy != nil {
		panic("pipeline: PriorityPolicy and Policy are mutually exclusive")
	}
	switch opts.PriorityPolicy {
	case PriorityDefault:
	case PriorityDM:
		p.policy = task.DeadlineMonotonic{}
	case PriorityEDFApprox:
		p.policy = task.EDFApprox{}
	case PriorityOPA:
		if opts.Admitter != nil || opts.NoAdmission || opts.Shards > 1 ||
			opts.Region != nil || opts.Reserved != nil || opts.Estimator != nil ||
			opts.MaxWait > 0 || opts.EnableShedding || opts.EnableDegradation ||
			opts.Governor != nil || opts.OverrunPolicy != core.OverrunIgnore ||
			opts.Adapt != nil {
			panic("pipeline: PriorityOPA requires the plain configuration (it replaces the admission controller)")
		}
		opts.Admitter = priority.NewAdmitter(opts.Stages, priority.ModeOPA, nil, opts.PriorityRNG)
	case PriorityExplicit:
		prios := make([]float64, len(opts.ExplicitOrder))
		for i := range prios {
			prios[i] = float64(i)
		}
		p.policy = priority.NewExplicitOrder(opts.ExplicitOrder, prios, nil)
	default:
		panic(fmt.Sprintf("pipeline: unknown PriorityPolicy %d", opts.PriorityPolicy))
	}
	if p.policy == nil {
		p.policy = task.DeadlineMonotonic{}
	}
	if p.prng == nil {
		p.prng = dist.NewRNG(0x5eed)
	}
	for j := 0; j < opts.Stages; j++ {
		st := sched.New(sim, fmt.Sprintf("stage-%d", j))
		if opts.PreemptionOverhead > 0 {
			st.SetPreemptionOverhead(opts.PreemptionOverhead)
		}
		p.stages = append(p.stages, st)
	}
	switch {
	case opts.NoAdmission:
	case opts.Admitter != nil:
		p.adm = opts.Admitter
	case opts.Shards > 1:
		if opts.Estimator != nil || opts.MaxWait > 0 || opts.EnableShedding ||
			opts.EnableDegradation || opts.Governor != nil ||
			opts.OverrunPolicy != core.OverrunIgnore || opts.Adapt != nil {
			panic("pipeline: Shards requires the plain feasible-region configuration")
		}
		region := core.NewRegion(opts.Stages)
		if opts.Region != nil {
			region = *opts.Region
		}
		p.adm = newShardAdmitter(sim, region, opts.Reserved, opts.Shards, opts.Metrics)
	default:
		region := core.NewRegion(opts.Stages)
		if opts.Region != nil {
			region = *opts.Region
		}
		p.ctrl = core.NewController(sim, region, opts.Reserved)
		if opts.Estimator != nil {
			p.ctrl.SetEstimator(opts.Estimator)
		}
		p.adm = p.ctrl
		if opts.MaxWait > 0 {
			p.wq = core.NewWaitQueue(sim, p.ctrl, opts.MaxWait, func(t *task.Task) { p.start(t) })
		}
	}
	p.health = opts.Health
	p.healthReplica = opts.HealthReplica
	if opts.Metrics != nil {
		if p.ctrl != nil {
			p.ctrl.SetMetrics(opts.Metrics)
		}
		buckets := metrics.ExponentialBuckets(1e-3, 4, 12)
		p.sojournHist = make([]*metrics.Histogram, len(p.stages))
		p.serviceHist = make([]*metrics.Histogram, len(p.stages))
		p.metMissStage = make([]*metrics.Counter, len(p.stages))
		for j, st := range p.stages {
			p.serviceHist[j] = opts.Metrics.Histogram("feasregion_stage_service_time", "executed computation time per completed job (simulated seconds)", buckets, metrics.Stage(j))
			p.sojournHist[j] = opts.Metrics.Histogram("feasregion_stage_sojourn_time", "submission-to-completion time per job at the stage (simulated seconds)", buckets, metrics.Stage(j))
			p.metMissStage[j] = opts.Metrics.Counter("feasregion_pipeline_misses", "deadline misses attributed to the stage whose tenure the deadline expired in", metrics.Stage(j))
			st.SetInstruments(sched.Instruments{
				QueueDepth:  opts.Metrics.Gauge("feasregion_stage_queue_depth", "ready jobs queued at the stage", metrics.Stage(j)),
				ServiceTime: p.serviceHist[j],
				Sojourn:     p.sojournHist[j],
				Overruns:    opts.Metrics.Counter("feasregion_stage_overruns_total", "budget-watchdog firings at the stage", metrics.Stage(j)),
			})
		}
		p.metDeparted = opts.Metrics.Counter("feasregion_departed_total", "tasks that completed all stages")
		p.metMissed = opts.Metrics.Counter("feasregion_deadline_miss_total", "completed tasks that missed their end-to-end deadline")
		p.metShed = opts.Metrics.Counter("feasregion_shed_total", "in-flight tasks aborted (semantic shedding or overrun eviction)")
	}
	if opts.Trace != nil {
		p.tracer = opts.Trace
		for _, st := range p.stages {
			st.OnEvent(func(e sched.Event) {
				p.tracer.Add(trace.Record{Time: e.Time, Source: e.Stage, Task: e.Task, Kind: e.Kind.String()})
			})
		}
	}
	if opts.EnableShedding {
		if p.ctrl == nil {
			panic("pipeline: shedding requires the default feasible-region controller")
		}
		p.shedding = true
	}
	if opts.EnableDegradation || opts.Governor != nil {
		if p.ctrl == nil {
			panic("pipeline: quality-aware degradation requires the default feasible-region controller")
		}
		if p.wq != nil {
			panic("pipeline: degradation does not compose with MaxWait (the wait queue admits at full quality)")
		}
		p.degradation = true
	}
	if opts.OverrunPolicy != core.OverrunIgnore {
		if p.ctrl == nil {
			panic("pipeline: the overrun guard requires the default feasible-region controller")
		}
		p.guard = core.NewGuard(p.ctrl, opts.OverrunPolicy, opts.OverrunTolerance)
		for j := range p.stages {
			j := j
			p.stages[j].OnOverrun(func(job *sched.Job, consumed, observed float64) {
				p.handleOverrun(j, job, consumed, observed)
			})
		}
	}
	if p.shedding || p.guard != nil || p.degradation {
		p.inflight = map[task.ID]*inflight{}
	}
	if opts.Governor != nil {
		in := degrade.Inputs{
			Headroom: func() (float64, float64) { return p.ctrl.Value(), p.ctrl.Region().Bound() },
		}
		if p.guard != nil {
			in.Overruns = func() uint64 { return p.guard.Stats().Detected }
		}
		p.governor = degrade.New(*opts.Governor, in)
		p.governor.SetTrimmer(p.TrimOptional)
		p.governor.SetMetrics(opts.Metrics)
	}
	if opts.Faults != nil {
		p.faults = opts.Faults
		p.faults.Attach(sim, p.stages)
	}
	if p.adm != nil && !opts.DisableIdleReset {
		for j := range p.stages {
			j := j
			p.stages[j].OnIdle(func(now des.Time) {
				if p.faults != nil && p.faults.DropIdle(j, now) {
					return // injected fault: the idle callback never arrives
				}
				p.adm.HandleStageIdle(j)
			})
		}
	}
	if opts.Adapt != nil {
		p.wireAdapt(*opts.Adapt, opts)
	}
	return p
}

// wireAdapt builds the adaptive estimation loop over the pipeline's own
// telemetry: sojourn/service histogram tails and ledger utilizations
// feed the β/α estimators, guard per-class detections against lifetime
// per-class admissions feed the demand estimator, and region updates
// flow back into the controller. The demand estimator's inflation is
// installed by wrapping the controller's estimator, so the guard's
// budgets (EstimateFor) follow the inflated estimates automatically.
func (p *Pipeline) wireAdapt(cfg adapt.Config, opts Options) {
	if p.ctrl == nil {
		panic("pipeline: the adapt loop requires the default feasible-region controller")
	}
	if p.sojournHist == nil && (cfg.Beta.Enabled || cfg.Alpha.Enabled) {
		panic("pipeline: the adapt β/α estimators require Options.Metrics (sojourn histograms)")
	}
	if cfg.Demand.Enabled && p.guard == nil {
		panic("pipeline: the adapt demand estimator requires an overrun policy (its detection source)")
	}
	src := adapt.Sources{
		StageUtilization: func(j int) float64 { return p.ctrl.Ledger(j).Utilization() },
	}
	if p.sojournHist != nil {
		src.SojournQuantile = func(j int, q float64) float64 { return p.sojournHist[j].Quantile(q) }
		src.SojournCount = func(j int) uint64 { return p.sojournHist[j].Count() }
		src.ServiceQuantile = func(j int, q float64) float64 { return p.serviceHist[j].Quantile(q) }
	}
	if cfg.Demand.Enabled {
		src.OverrunsByClass = p.guard.DetectedByClass
		src.AdmittedByClass = p.EnteredByClass
	}
	p.loop = adapt.NewLoop(cfg, p.ctrl.Region(), p.ctrl, src)
	p.loop.SetMetrics(opts.Metrics)
	if cfg.Demand.Enabled {
		base := opts.Estimator
		if base == nil {
			base = core.ActualDemand
		}
		p.ctrl.SetEstimator(p.loop.WrapEstimator(base))
	}
}

// AdaptLoop returns the adaptive estimation loop, or nil when not
// configured. Drive it with ScheduleSim over the run's horizon.
func (p *Pipeline) AdaptLoop() *adapt.Loop { return p.loop }

// EnteredByClass returns lifetime started-task counts keyed by class —
// the admission denominator of the adapt demand estimator. The returned
// map is a copy.
func (p *Pipeline) EnteredByClass() map[string]uint64 {
	out := make(map[string]uint64, len(p.classEntered))
	for k, v := range p.classEntered {
		out[k] = v
	}
	return out
}

// Guard returns the overrun guard, or nil when no policy is armed.
func (p *Pipeline) Guard() *core.Guard { return p.guard }

// handleOverrun applies the guard policy when a running job crosses its
// admitted budget. For the evict policy the task is aborted through the
// same machinery as semantic load shedding.
func (p *Pipeline) handleOverrun(stage int, job *sched.Job, consumed, observed float64) {
	f := p.inflight[job.TaskID]
	if f == nil || f.injected {
		return // already shed/finished, or a certified task (never evicted)
	}
	p.trace(f.t.ID, "guard", "overrun")
	if !p.guard.HandleOverrun(f.t, stage, consumed, observed) {
		return
	}
	p.abort(f, "overrun-evict")
	if p.measuring {
		p.overrunEvicted++
	}
}

// Controller returns the admission controller, or nil when admission is
// disabled.
func (p *Pipeline) Controller() *core.Controller { return p.ctrl }

// WaitQueue returns the wait queue, or nil when not configured.
func (p *Pipeline) WaitQueue() *core.WaitQueue { return p.wq }

// Stage returns the j-th stage scheduler.
func (p *Pipeline) Stage(j int) *sched.Stage { return p.stages[j] }

// Stages returns the pipeline length.
func (p *Pipeline) Stages() int { return len(p.stages) }

// RegisterLock declares a PCP lock (with its priority ceiling) on a stage
// before tasks with critical sections are offered.
func (p *Pipeline) RegisterLock(stage, lockID int, ceiling float64) {
	p.stages[stage].RegisterLock(lockID, ceiling)
}

// Offer presents an arriving task to the system: it assigns the
// scheduling priority, runs admission control, and injects the task into
// stage 1 if admitted. With a wait queue configured the task may instead
// be held; Offer then returns false and the task may still enter later.
func (p *Pipeline) Offer(t *task.Task) bool {
	if p.measuring {
		p.offered++
		p.class(t).Offered++
	}
	p.assignPriority(t)
	if p.wq != nil {
		p.wq.Submit(t)
		return false
	}
	if p.adm != nil && p.degradation {
		return p.offerQuality(t)
	}
	if p.adm != nil && !p.adm.TryAdmit(t) {
		if !p.shedding || !p.shedFor(t) {
			p.trace(t.ID, "admission", "reject")
			return false
		}
		if !p.ctrl.TryAdmit(t) {
			p.trace(t.ID, "admission", "reject")
			return false // racing contributions; should not happen
		}
	}
	p.trace(t.ID, "admission", "admit")
	p.start(t)
	return true
}

// offerQuality runs the degrade-before-you-reject admission sequence:
// (1) the core cascade — full demand under the governor's quality cap,
// then the highest fitting ladder level; (2) trim less important
// in-flight tasks toward mandatory-only (PlanDegradation) and retry; (3)
// only when the governor permits eviction (or no governor is attached),
// fall back to semantic shedding and retry once more.
func (p *Pipeline) offerQuality(t *task.Task) bool {
	lvCap := task.QualityLevels
	if p.governor != nil {
		lvCap = p.governor.QualityCap()
	}
	if lv, ok := p.ctrl.TryAdmitQuality(t, lvCap); ok {
		p.admitAt(t, lv)
		return true
	}
	if p.degradeFor(t) {
		if lv, ok := p.ctrl.TryAdmitQuality(t, lvCap); ok {
			p.admitAt(t, lv)
			return true
		}
	}
	if p.shedding && (p.governor == nil || p.governor.AllowEviction()) && p.shedFor(t) {
		if lv, ok := p.ctrl.TryAdmitQuality(t, lvCap); ok {
			p.admitAt(t, lv)
			return true
		}
	}
	p.trace(t.ID, "admission", "reject")
	return false
}

// admitAt records a quality-cascade admission and starts the task.
func (p *Pipeline) admitAt(t *task.Task, level int) {
	p.trace(t.ID, "admission", "admit")
	if level < task.QualityLevels && t.HasOptional() {
		p.trace(t.ID, "admission", "degraded")
		if p.measuring {
			p.degraded++
		}
	}
	p.startAs(t, false, level)
}

// trace records a pipeline-level event when tracing is wired.
func (p *Pipeline) trace(id task.ID, source, kind string) {
	if p.tracer != nil {
		p.tracer.Add(trace.Record{Time: p.sim.Now(), Source: source, Task: id, Kind: kind})
	}
}

// victims collects the in-flight tasks an arrival may displace (less
// important, not injected) in the canonical victim order
// (task.OrderVictims) — shared by shedding and degradation so both
// mechanisms pick the same targets deterministically.
func (p *Pipeline) victims(t *task.Task) ([]*task.Task, map[task.ID]*inflight) {
	vs := make([]*task.Task, 0, len(p.inflight))
	byID := make(map[task.ID]*inflight, len(p.inflight))
	for _, f := range p.inflight {
		if f.injected || f.t.Importance >= t.Importance {
			continue
		}
		vs = append(vs, f.t)
		byID[f.t.ID] = f
	}
	task.OrderVictims(vs)
	return vs, byID
}

// shedFor tries to make room for an important arrival by shedding less
// important in-flight tasks in canonical victim order. It reports
// whether enough was shed for t to fit.
func (p *Pipeline) shedFor(t *task.Task) bool {
	vs, byID := p.victims(t)
	if len(vs) == 0 {
		return false
	}
	ids := make([]task.ID, len(vs))
	for i, v := range vs {
		ids[i] = v.ID
	}
	plan, ok := p.ctrl.PlanShedding(t, ids)
	if !ok {
		return false
	}
	for _, id := range plan {
		p.abort(byID[id], "shed")
	}
	return true
}

// degradeFor tries to make room for an arrival by trimming less
// important in-flight tasks toward mandatory-only demand, escalating to
// eviction only when trimming every victim is not enough AND the
// governor (if any) permits eviction. Nothing is applied unless the
// whole plan is. It reports whether room was made (the caller then
// re-runs the admission cascade, which may now land above
// mandatory-only).
func (p *Pipeline) degradeFor(t *task.Task) bool {
	vs, byID := p.victims(t)
	if len(vs) == 0 {
		return false
	}
	plan, ok := p.ctrl.PlanDegradation(t, vs)
	if !ok {
		return false
	}
	if len(plan.Evict) > 0 && p.governor != nil && !p.governor.AllowEviction() {
		return false
	}
	for _, id := range plan.Trim {
		p.applyTrim(byID[id], 0)
	}
	for _, id := range plan.Evict {
		p.abort(byID[id], "shed")
	}
	return true
}

// applyTrim lowers one in-flight task to the level: the ledger
// contribution shrinks through core.Degrade, and the currently running
// (or queued) stage job is cut to the degraded demand with a
// proportionally scaled overrun budget. Raising is never done in place —
// restored quality only applies to future admissions. Reports whether
// the task was trimmed.
func (p *Pipeline) applyTrim(f *inflight, level int) bool {
	if f == nil || level >= f.level || !f.t.HasOptional() {
		return false
	}
	if _, ok := p.ctrl.Degrade(f.t, level); !ok {
		return false
	}
	f.level = level
	p.trace(f.t.ID, "admission", "trim")
	if p.measuring {
		p.trimmedTasks++
	}
	j := f.stage
	sub := f.t.Subtasks[j]
	if sub.Optional > 0 && len(sub.Segments) == 0 && sub.Demand > 0 {
		d := f.t.StageDemandAt(j, level)
		budget := math.Inf(1)
		if p.guard != nil && !f.injected {
			budget = p.guard.Budget(f.t, j) * d / sub.Demand
		}
		p.stages[j].TrimTo(&f.job, d, budget) // a no-op unless the job is resident
	}
	return true
}

// TrimOptional degrades every non-injected in-flight task above maxLevel
// down to it and returns how many tasks were trimmed — the governor's
// actuator (wired as its trimmer), also callable directly.
func (p *Pipeline) TrimOptional(maxLevel int) int {
	n := 0
	for _, f := range p.inflight {
		if f.injected {
			continue
		}
		if p.applyTrim(f, maxLevel) {
			n++
		}
	}
	return n
}

// Governor returns the overload governor, or nil when not configured.
// Drive it with ScheduleSim over the run's horizon.
func (p *Pipeline) Governor() *degrade.Governor { return p.governor }

// abort drops one in-flight task (semantic shedding or overrun
// eviction): its current job is cancelled, its synthetic-utilization
// contributions evicted, and it is counted as shed rather than
// completed.
func (p *Pipeline) abort(f *inflight, kind string) {
	t := f.t
	p.stages[f.stage].Cancel(&f.job)
	delete(p.inflight, t.ID)
	p.release(f)
	p.ctrl.Evict(t.ID)
	p.metShed.Inc()
	p.trace(t.ID, "admission", kind)
	if p.measuring {
		p.shed++
		p.class(t).Shed++
	}
}

// release returns a finished or aborted record to the free list. Its job
// is no longer resident anywhere and the record is unreachable from
// p.inflight, so nothing can pass it to Stage.Cancel or TrimTo again;
// clearing it drops the task pointer for the garbage collector.
func (p *Pipeline) release(f *inflight) {
	*f = inflight{next: p.free}
	p.free = f
}

// class returns the per-class accumulator for the task's class label.
func (p *Pipeline) class(t *task.Task) *ClassMetrics {
	cm, ok := p.classes[t.Class]
	if !ok {
		cm = &ClassMetrics{}
		p.classes[t.Class] = cm
	}
	return cm
}

// Inject bypasses admission control and starts the task immediately —
// for certified critical tasks whose utilization is covered by the
// reserved floor (paper §5). Injected tasks are exempt from the overrun
// guard: their capacity was certified offline, not estimated.
func (p *Pipeline) Inject(t *task.Task) {
	p.assignPriority(t)
	p.startAs(t, true, task.QualityLevels)
}

func (p *Pipeline) assignPriority(t *task.Task) {
	t.Priority = p.policy.Assign(t, p.prng)
}

// start begins execution at the first stage with non-zero demand.
func (p *Pipeline) start(t *task.Task) { p.startAs(t, false, task.QualityLevels) }

func (p *Pipeline) startAs(t *task.Task, injected bool, level int) {
	if len(t.Subtasks) != len(p.stages) {
		panic(fmt.Sprintf("pipeline: task %d has %d subtasks for %d stages", t.ID, len(t.Subtasks), len(p.stages)))
	}
	if p.measuring {
		p.enteredService++
		p.class(t).Entered++
	}
	if p.classEntered == nil {
		p.classEntered = map[string]uint64{}
	}
	p.classEntered[t.Class]++
	f := p.free
	if f != nil {
		p.free = f.next
	} else {
		f = new(inflight)
	}
	*f = inflight{p: p, t: t, injected: injected, missStage: -1, level: level}
	if p.inflight != nil {
		p.inflight[t.ID] = f
	}
	p.advance(f, p.sim.Now())
}

// advance submits the current stage's subtask, skipping zero-demand
// stages, and finishes the task past the last stage.
func (p *Pipeline) advance(f *inflight, now des.Time) {
	t := f.t
	for f.stage < len(p.stages) {
		j := f.stage
		sub := t.Subtasks[j]
		ratio := 1.0
		if f.level < task.QualityLevels && sub.Optional > 0 && len(sub.Segments) == 0 && sub.Demand > 0 {
			// Degraded admission: the stage runs only the quality level's
			// share of the optional demand.
			d := t.StageDemandAt(j, f.level)
			ratio = d / sub.Demand
			sub = task.Subtask{Demand: d}
		}
		if sub.Demand <= 0 && len(sub.Segments) == 0 {
			// No work here: the task departs stage j instantly.
			if p.adm != nil {
				p.adm.MarkDeparted(j, t.ID)
			}
			f.stage++
			continue
		}
		budget := math.Inf(1)
		if p.guard != nil && !f.injected {
			budget = p.guard.Budget(t, j) * ratio
		}
		p.stages[j].SubmitJob(&f.job, t.ID, t.Priority, sub, budget, f)
		return
	}
	p.finish(f, now)
}

// Complete is the current stage's job completion: it records the stage
// tenure, departs the task from the stage, and advances it.
func (f *inflight) Complete(done des.Time) {
	p, t, j := f.p, f.t, f.stage
	enq := f.job.Submitted()
	if f.missStage < 0 {
		// The deadline fell inside this stage's tenure: the task died
		// here, whatever stages remain.
		if dl := t.AbsoluteDeadline(); dl >= enq && dl < done {
			f.missStage = j
		}
	}
	if p.measuring {
		p.stageDelays[j].Add(done - enq)
	}
	if p.health != nil {
		// f.job is still this stage's completed job here; advance reuses
		// it only after the observation. Degraded jobs declare their
		// degraded demand, not the full one.
		p.health.ObserveReplica(p.healthReplica, j, t.StageDemandAt(j, f.level), f.job.Consumed())
	}
	if p.adm != nil {
		p.adm.MarkDeparted(j, t.ID)
	}
	f.stage++
	p.advance(f, done)
}

func (p *Pipeline) finish(f *inflight, now des.Time) {
	t := f.t
	if p.inflight != nil {
		delete(p.inflight, t.ID)
	}
	level, missStage := f.level, f.missStage
	p.release(f)
	miss := now > t.AbsoluteDeadline()+1e-9
	p.metDeparted.Inc()
	p.trace(t.ID, "pipeline", "depart")
	if miss {
		p.metMissed.Inc()
		if p.metMissStage != nil {
			// A deadline that expired before the first stage's tenure
			// (e.g. while held in the wait queue) charges the entry stage.
			j := missStage
			if j < 0 {
				j = 0
			}
			p.metMissStage[j].Inc()
		}
		p.trace(t.ID, "pipeline", "miss")
	}
	if !p.measuring {
		return
	}
	p.completed++
	resp := now - t.Arrival
	p.responseTimes.Add(resp)
	p.respP50.Add(resp)
	p.respP95.Add(resp)
	p.respP99.Add(resp)
	p.missRatio.Observe(miss)
	if !miss {
		p.utility += t.Utility(level)
	}
	cm := p.class(t)
	cm.Completed++
	if miss {
		p.missed++
		cm.Missed++
	}
}

// BeginMeasurement starts the statistics window: utilization baselines
// are captured and task counters reset, so warmup transients are
// excluded. Call it via sim.At at the warmup instant.
func (p *Pipeline) BeginMeasurement() {
	now := p.sim.Now()
	p.measuring = true
	p.measureStart = now
	p.busyAtStart = make([]float64, len(p.stages))
	for j, st := range p.stages {
		p.busyAtStart[j] = st.BusyTime(now)
	}
	p.responseTimes = stats.Welford{}
	p.respP50 = stats.NewQuantile(0.50)
	p.respP95 = stats.NewQuantile(0.95)
	p.respP99 = stats.NewQuantile(0.99)
	p.stageDelays = make([]stats.Welford, len(p.stages))
	p.missRatio = stats.Ratio{}
	p.offered, p.enteredService, p.completed, p.missed, p.shed = 0, 0, 0, 0, 0
	p.overrunEvicted = 0
	p.degraded, p.trimmedTasks, p.utility = 0, 0, 0
	p.classes = map[string]*ClassMetrics{}
	if p.ctrl != nil {
		for j := 0; j < len(p.stages); j++ {
			p.ctrl.Ledger(j).ResetPeak()
		}
	}
}

// Metrics is a snapshot of the measurement window.
type Metrics struct {
	// StageUtilization is each stage's real utilization (busy fraction)
	// over the window; MeanUtilization averages across stages.
	StageUtilization []float64
	MeanUtilization  float64
	// BottleneckUtilization is the largest per-stage utilization.
	BottleneckUtilization float64

	Offered        uint64
	EnteredService uint64
	Completed      uint64
	Missed         uint64
	// Shed counts tasks dropped mid-flight, both semantic-importance
	// shedding and overrun evictions; OverrunEvicted is the subset the
	// overrun guard aborted.
	Shed           uint64
	OverrunEvicted uint64
	MissRatio      float64
	AcceptRatio    float64

	// Degraded counts admissions that entered below full quality over
	// the window; TrimmedTasks counts in-flight quality trims (admission
	// PlanDegradation plus governor ticks); UtilityDelivered sums
	// task.Utility(level) over on-time completions — full-quality rigid
	// or undegraded tasks deliver 1, degraded ones less, missed or shed
	// ones nothing.
	Degraded         uint64
	TrimmedTasks     uint64
	UtilityDelivered float64

	// GuardStats snapshots the overrun guard's cumulative counters
	// (zero when no guard is armed). Unlike the window counters above,
	// these span the pipeline's whole lifetime.
	GuardStats core.GuardStats

	ResponseTimes stats.Welford
	// ResponseP50/P95/P99 are streaming (P²) response-time percentile
	// estimates over the measurement window.
	ResponseP50 float64
	ResponseP95 float64
	ResponseP99 float64
	StageDelays []stats.Welford
	// ByClass breaks the counters down by Task.Class.
	ByClass map[string]ClassMetrics
}

// Snapshot computes metrics over [BeginMeasurement, now].
func (p *Pipeline) Snapshot() Metrics {
	now := p.sim.Now()
	if !p.measuring {
		panic("pipeline: Snapshot before BeginMeasurement")
	}
	window := now - p.measureStart
	m := Metrics{
		StageUtilization: make([]float64, len(p.stages)),
		Offered:          p.offered,
		EnteredService:   p.enteredService,
		Completed:        p.completed,
		Missed:           p.missed,
		Shed:             p.shed,
		OverrunEvicted:   p.overrunEvicted,
		Degraded:         p.degraded,
		TrimmedTasks:     p.trimmedTasks,
		UtilityDelivered: p.utility,
		MissRatio:        p.missRatio.Value(),
		ResponseTimes:    p.responseTimes,
		ResponseP50:      p.respP50.Value(),
		ResponseP95:      p.respP95.Value(),
		ResponseP99:      p.respP99.Value(),
		StageDelays:      append([]stats.Welford(nil), p.stageDelays...),
		ByClass:          map[string]ClassMetrics{},
	}
	if p.guard != nil {
		m.GuardStats = p.guard.Stats()
	}
	for name, cm := range p.classes {
		m.ByClass[name] = *cm
	}
	for j, st := range p.stages {
		u := 0.0
		if window > 0 {
			u = (st.BusyTime(now) - p.busyAtStart[j]) / window
		}
		m.StageUtilization[j] = u
		m.MeanUtilization += u / float64(len(p.stages))
		if u > m.BottleneckUtilization {
			m.BottleneckUtilization = u
		}
	}
	if p.offered > 0 {
		m.AcceptRatio = float64(p.enteredService) / float64(p.offered)
	}
	return m
}
