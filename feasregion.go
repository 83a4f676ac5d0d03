package feasregion

import (
	"io"

	"feasregion/internal/adapt"
	"feasregion/internal/cluster"
	"feasregion/internal/core"
	"feasregion/internal/curve"
	"feasregion/internal/degrade"
	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/metrics"
	"feasregion/internal/obs"
	"feasregion/internal/online"
	"feasregion/internal/pipeline"
	"feasregion/internal/priority"
	"feasregion/internal/task"
	"feasregion/internal/trace"
	"feasregion/internal/workload"
)

// ---- Region mathematics (paper §3) ----

// UniprocessorBound is the single-resource aperiodic schedulable
// utilization bound 1/(1+√½) = 2−√2 ≈ 0.586.
var UniprocessorBound = core.UniprocessorBound

// StageDelayFactor is f(U) = U(1−U/2)/(1−U) from the stage delay theorem.
func StageDelayFactor(u float64) float64 { return core.StageDelayFactor(u) }

// InverseStageDelayFactor inverts f: the utilization whose delay factor
// is y.
func InverseStageDelayFactor(y float64) float64 { return core.InverseStageDelayFactor(y) }

// Region is the multi-dimensional feasible region Σ f(U_j) ≤ α(1−Σβ_j).
type Region = core.Region

// NewRegion returns the deadline-monotonic independent-task region for
// the given number of stages (Eq. 13).
func NewRegion(stages int) Region { return core.NewRegion(stages) }

// TaskParams is a (priority, deadline) pair for urgency-inversion
// analysis.
type TaskParams = core.TaskParams

// Alpha computes a priority assignment's urgency-inversion parameter
// α = min D_lo/D_hi over priority-ordered pairs (paper §2).
func Alpha(params []TaskParams) float64 { return core.Alpha(params) }

// CriticalSection describes one critical section for blocking analysis.
type CriticalSection = core.CriticalSection

// BlockingTaskInfo is a task's static view for blocking analysis.
type BlockingTaskInfo = core.BlockingTaskInfo

// Betas computes the per-stage normalized blocking terms β_j of Eq. 15
// under the priority ceiling protocol.
func Betas(stages int, tasks []BlockingTaskInfo) []float64 { return core.Betas(stages, tasks) }

// GraphValue evaluates Theorem 2's left-hand side for a DAG task graph.
func GraphValue(g *Graph, utils, betas []float64) float64 { return core.GraphValue(g, utils, betas) }

// GraphFeasible reports whether a DAG task's region condition holds.
func GraphFeasible(g *Graph, utils, betas []float64, alpha float64) bool {
	return core.GraphFeasible(g, utils, betas, alpha)
}

// ---- Task model ----

// TaskID identifies a task instance.
type TaskID = task.ID

// NoLock marks a segment outside any critical section.
const NoLock = task.NoLock

// Task is one aperiodic arrival with per-stage demands and an end-to-end
// deadline.
type Task = task.Task

// Subtask is a task's work on one stage.
type Subtask = task.Subtask

// Segment is a contiguous piece of a subtask, optionally inside a
// critical section.
type Segment = task.Segment

// Graph is a DAG of subtasks over resources (paper §3.3).
type Graph = task.Graph

// NewGraph returns an empty task-graph builder.
func NewGraph() *Graph { return task.NewGraph() }

// Chain builds a pipeline task from per-stage demands.
func Chain(id TaskID, arrival, deadline float64, demands ...float64) *Task {
	return task.Chain(id, arrival, deadline, demands...)
}

// Policy assigns scheduling priorities (lower = more urgent).
type Policy = task.Policy

// DeadlineMonotonic is the optimal fixed-priority policy (α = 1).
type DeadlineMonotonic = task.DeadlineMonotonic

// EDF schedules by absolute deadline (not fixed-priority; simulator
// comparison only).
type EDF = task.EDF

// RandomPriority assigns uniformly random priorities (α = Dleast/Dmost).
type RandomPriority = task.Random

// SemanticImportance prioritizes by importance (generally α < 1).
type SemanticImportance = task.SemanticImportance

// EDFApprox freezes each task's EDF priority (absolute deadline) at
// arrival — fixed-priority, so the region applies with the α the
// concurrent population earns.
type EDFApprox = task.EDFApprox

// ---- Optimal priority assignment (THEORY.md §9) ----

// PriorityCandidate is one task as the OPA search sees it: identity,
// relative end-to-end deadline, and per-stage demands.
type PriorityCandidate = priority.Candidate

// PriorityTest is a pluggable per-task schedulability test driving the
// OPA search: set-dependent only and monotone under set shrinking.
type PriorityTest = priority.Test

// RegionExactTest is the Theorem 1 delay composition restricted to each
// task's equal-or-higher-priority interference set with a per-stage
// maximum deadline — the tightest sound test and the admission default.
type RegionExactTest = priority.RegionExact

// AlphaPenalizedTest is the scalar α form of Eq. 15 applied per task
// (one global maximum deadline) — the test the closed-form region
// implies, coarser than RegionExactTest.
type AlphaPenalizedTest = priority.AlphaPenalized

// ResponseTimeTest is the additive per-stage interference bound. It
// ranks priority orders beyond their deadlines but is NOT sound under
// aperiodic churn — offline comparison and tightness studies only.
type ResponseTimeTest = priority.ResponseTime

// PriorityAssignment is the result of an OPA search: a strict total
// order with per-task levels, its α, and a replayable Policy.
type PriorityAssignment = priority.Assignment

// PriorityInfeasibleError reports an OPA search that found no feasible
// order, with the level reached and the unassigned tasks.
type PriorityInfeasibleError = priority.InfeasibleError

// AssignPriorities runs the Audsley-style OPA search over the
// candidates: levels are filled lowest-first and any candidate that
// remains schedulable with all still-unassigned candidates above it
// takes the level (deterministic largest-deadline-first tie-break). For
// the monotone tests this is optimal for the tested class: it succeeds
// whenever any total order passes. test nil selects RegionExactTest.
func AssignPriorities(cands []PriorityCandidate, stages int, test PriorityTest) (*PriorityAssignment, error) {
	return priority.Assign(cands, stages, test)
}

// AssignTaskPriorities runs the OPA search over tasks and writes the
// searched levels into each Task.Priority.
func AssignTaskPriorities(tasks []*Task, stages int, test PriorityTest) (*PriorityAssignment, error) {
	return priority.AssignTasks(tasks, stages, test)
}

// TaskCandidates converts tasks into OPA search candidates.
func TaskCandidates(tasks []*Task, stages int) []PriorityCandidate {
	return priority.Candidates(tasks, stages)
}

// NewExplicitOrderPolicy replays a recorded priority order (e.g. an
// offline OPA result) as a task.Policy; tasks outside the order fall
// back to the given policy (nil: deadline-monotonic).
func NewExplicitOrderPolicy(ids []TaskID, prios []float64, fallback Policy) Policy {
	return priority.NewExplicitOrder(ids, prios, fallback)
}

// PriorityAdmitter is the online OPA admission controller: it keeps
// per-task interference sets, places each arrival at its deadline slot
// with a strict frozen priority, and admits iff the per-task test holds
// for the newcomer and everything below it. It implements Admitter:
// set it as PipelineOptions.Admitter to run a pipeline under online OPA.
type PriorityAdmitter = priority.Admitter

// PriorityAdmitterStats is a PriorityAdmitter decision snapshot.
type PriorityAdmitterStats = priority.Stats

// PriorityMode selects the PriorityAdmitter's placement rule.
type PriorityMode = priority.Mode

// PriorityAdmitter placement modes.
const (
	// PriorityModeOPA places arrivals at their deadline slot with
	// strict levels (the provably optimal slot for the monotone tests).
	PriorityModeOPA = priority.ModeOPA
	// PriorityModeDM places arrivals by relative deadline, equal
	// deadlines at equal priority.
	PriorityModeDM = priority.ModeDM
	// PriorityModeRandom draws a uniform priority per arrival.
	PriorityModeRandom = priority.ModeRandom
)

// NewPriorityAdmitter builds a per-task priority-aware admitter for an
// N-stage pipeline. test nil selects RegionExactTest; rng seeds
// PriorityModeRandom draws (nil: fixed internal seed).
func NewPriorityAdmitter(stages int, mode PriorityMode, test PriorityTest, rng *RNG) *PriorityAdmitter {
	return priority.NewAdmitter(stages, mode, test, rng)
}

// DMCompatible reports whether a priority order never inverts urgency
// (α ≥ 1), i.e. Eq. 15 applies un-penalized.
func DMCompatible(params []TaskParams) bool { return core.DMCompatible(params) }

// RegionForOrder builds the feasible region a given priority order
// earns: the DM region shrunk by the order's α (Eq. 12).
func RegionForOrder(stages int, params []TaskParams, betas []float64) Region {
	return core.RegionForOrder(stages, params, betas)
}

// ---- Admission control ----

// Estimator supplies admission-time demand estimates.
type Estimator = core.Estimator

// MeanDemand returns the approximate-admission estimator of §4.4.
func MeanDemand(means []float64) Estimator { return core.MeanDemand(means) }

// Controller is the O(N) feasible-region admission controller for
// pipelines.
type Controller = core.Controller

// NewController builds a controller over the region, with optional
// per-stage reserved utilization for certified critical tasks.
func NewController(sim *Simulator, region Region, reserved []float64) *Controller {
	return core.NewController(sim, region, reserved)
}

// GraphController is the Theorem 2 admission controller for DAG tasks.
type GraphController = core.GraphController

// NewGraphController builds a DAG admission controller.
func NewGraphController(sim *Simulator, resources int, alpha float64, betas []float64) *GraphController {
	return core.NewGraphController(sim, resources, alpha, betas)
}

// WaitQueue holds non-admissible arrivals for a bounded time (§5). Unlike
// the pipelines, it keeps the submitted task pointer while it holds it.
type WaitQueue = core.WaitQueue

// NewWaitQueue wraps a controller with hold-and-retry admission.
func NewWaitQueue(sim *Simulator, c *Controller, maxWait float64, admit func(*Task)) *WaitQueue {
	return core.NewWaitQueue(sim, c, maxWait, admit)
}

// NewGraphWaitQueue wraps a Theorem 2 controller with hold-and-retry
// admission for DAG tasks.
func NewGraphWaitQueue(sim *Simulator, c *GraphController, maxWait float64, admit func(*Task)) *WaitQueue {
	return core.NewGraphWaitQueue(sim, c, maxWait, admit)
}

// ---- Simulation ----

// Simulator is the deterministic discrete-event engine.
type Simulator = des.Simulator

// NewSimulator returns an empty simulator at time zero.
func NewSimulator() *Simulator { return des.New() }

// Pipeline simulates an N-stage resource pipeline with admission control.
// Its Offer and Inject, like the other pipelines', copy the task they
// keep, so the caller may reuse its task once the call returns.
type Pipeline = pipeline.Pipeline

// PipelineOptions configures NewPipeline.
type PipelineOptions = pipeline.Options

// PipelineMetrics is a measurement-window snapshot.
type PipelineMetrics = pipeline.Metrics

// Admitter is the pluggable admission-policy interface a Pipeline drives.
type Admitter = pipeline.Admitter

// NewPipeline builds a pipeline simulator.
func NewPipeline(sim *Simulator, opts PipelineOptions) *Pipeline { return pipeline.New(sim, opts) }

// GraphSystem executes DAG tasks over independent resources.
type GraphSystem = pipeline.GraphSystem

// GraphSystemOptions configures NewGraphSystem.
type GraphSystemOptions = pipeline.GraphOptions

// NewGraphSystem builds a DAG execution system.
func NewGraphSystem(sim *Simulator, opts GraphSystemOptions) *GraphSystem {
	return pipeline.NewGraphSystem(sim, opts)
}

// MultiServerPipeline extends the model to stages with multiple CPUs
// via partitioned dispatch (Theorem 2 per virtual pipeline).
type MultiServerPipeline = pipeline.MultiServerPipeline

// MultiServerOptions configures NewMultiServerPipeline.
type MultiServerOptions = pipeline.MultiServerOptions

// NewMultiServerPipeline builds a partitioned multiprocessor pipeline.
func NewMultiServerPipeline(sim *Simulator, opts MultiServerOptions) *MultiServerPipeline {
	return pipeline.NewMultiServerPipeline(sim, opts)
}

// ---- Online (wall-clock) admission control ----

// OnlineController is the thread-safe wall-clock admission controller
// for real services: contributions expire lazily against time.Now (or an
// injected clock) and all methods are safe for concurrent use.
type OnlineController = online.Controller

// OnlineRequest describes one admission request to an OnlineController.
type OnlineRequest = online.Request

// OnlineClock abstracts time.Now for testing online controllers.
type OnlineClock = online.Clock

// NewOnlineController builds a wall-clock controller for the region with
// optional per-stage reserved floors; clock may be nil (time.Now).
func NewOnlineController(region Region, reserved []float64, clock OnlineClock) *OnlineController {
	return online.New(region, reserved, clock)
}

// OnlineConfig is the full configuration for an OnlineController:
// reserved per-stage floors and the clock. Admission is one exact
// region test under one lock; to spread admission across cores, run a
// cluster of replicas (NewCluster).
type OnlineConfig = online.Config

// NewOnlineControllerWithConfig builds a wall-clock controller from the
// full configuration; the zero Config matches NewOnlineController with
// nil reserved floors and the system clock.
func NewOnlineControllerWithConfig(region Region, cfg OnlineConfig) *OnlineController {
	return online.NewWithConfig(region, cfg)
}

// ---- Cluster (replicas, headroom routing, autoscaling) ----

// ClusterReplica wraps one OnlineController as a routable cluster
// member: it publishes a lock-free headroom snapshot (the region bound
// minus the current region value) after every admission event, and
// carries the Active → Draining → Stopped lifecycle the autoscaler
// drives.
type ClusterReplica = cluster.Replica

// NewClusterReplica wraps an OnlineController as a replica with the
// given identity.
func NewClusterReplica(id int, ctrl *OnlineController) *ClusterReplica {
	return cluster.NewReplica(id, ctrl)
}

// ReplicaState is a replica's lifecycle state.
type ReplicaState = cluster.State

// Replica lifecycle states.
const (
	// ReplicaActive: routable, accepting admissions.
	ReplicaActive = cluster.Active
	// ReplicaDraining: hidden from the router, finishing admitted work.
	ReplicaDraining = cluster.Draining
	// ReplicaStopped: removed from the fleet.
	ReplicaStopped = cluster.Stopped
)

// RoutingPolicy selects how the cluster router places admissions over
// the replicas' published headroom snapshots.
type RoutingPolicy = cluster.Policy

// Routing policies.
const (
	// RouteRoundRobin rotates blindly over the active replicas.
	RouteRoundRobin = cluster.RoundRobin
	// RouteHeadroomGreedy scans every snapshot and picks the roomiest.
	RouteHeadroomGreedy = cluster.HeadroomGreedy
	// RoutePowerOfTwo probes two replicas and keeps the roomier —
	// near-greedy balance at O(1) cost, with the runner-up as rollback.
	// Route probes inside the calling P's home share of the replicas,
	// first the richer of its two probes at its last placement.
	RoutePowerOfTwo = cluster.PowerOfTwo
)

// ClusterRouter is the lock-free routing hot path; RouterStats its
// lifetime counters.
type ClusterRouter = cluster.Router

// RouterStats counts placements, rollbacks, rejections and home-share
// handoffs.
type RouterStats = cluster.RouterStats

// Autoscaler watches aggregate region headroom and router reject rate
// and grows or drains the fleet with hysteresis: scale-up is fast (a
// short streak of low headroom or visible rejects), scale-down is slow
// and routes through a drain state so admitted work finishes first.
type Autoscaler = cluster.Autoscaler

// AutoscalerConfig tunes the autoscaler's thresholds; the zero value
// selects the defaults.
type AutoscalerConfig = cluster.AutoscalerConfig

// AutoscalerTransition is one logged scaling action.
type AutoscalerTransition = cluster.Transition

// ScalingAction enumerates what an AutoscalerTransition did.
type ScalingAction = cluster.Action

// Cluster is the control plane tying replicas, router, and autoscaler
// together.
type Cluster = cluster.Cluster

// ClusterOptions configures NewCluster.
type ClusterOptions = cluster.Options

// NewCluster builds a cluster control plane; see cluster.Options for
// the replica factory and scaler wiring.
func NewCluster(opts ClusterOptions) *Cluster { return cluster.New(opts) }

// ClusterPipeline drives a fleet of simulated stage pipelines — one per
// replica — behind the cluster router and autoscaler, for experiments
// and capacity planning on the deterministic simulator.
type ClusterPipeline = pipeline.ClusterPipeline

// ClusterPipelineOptions configures NewClusterPipeline.
type ClusterPipelineOptions = pipeline.ClusterOptions

// ClusterPipelineMetrics is the fleet-level measurement snapshot.
type ClusterPipelineMetrics = pipeline.ClusterMetrics

// NewClusterPipeline builds the simulated fleet on the simulator.
func NewClusterPipeline(sim *Simulator, opts ClusterPipelineOptions) *ClusterPipeline {
	return pipeline.NewCluster(sim, opts)
}

// ---- Observability (metrics & stage-health feedback) ----

// MetricsRegistry is the dependency-free instrument registry: counters,
// gauges, histograms, and EWMAs with a zero-alloc hot path, exported in
// Prometheus text format (Handler/WritePrometheus). A nil
// registry disables metrics at no cost. Series over a simulated pipeline
// or Controller read the simulation's own state at scrape time: render
// such a registry on the goroutine driving the simulator, or while it is
// stopped.
type MetricsRegistry = metrics.Registry

// MetricLabel is one name="value" pair attached to a metric series.
type MetricLabel = metrics.Label

// NewMetricsRegistry returns an empty, enabled registry. Pass it via
// PipelineOptions.Metrics, Controller.SetMetrics, or
// OnlineController.RegisterMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ExponentialBuckets returns count histogram bucket bounds starting at
// start and multiplying by factor.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	return metrics.ExponentialBuckets(start, factor, count)
}

// StageHealthMonitor closes the loop from observed per-stage service
// times back into admission: an EWMA of actual/declared demand drives
// the controller's per-stage scale when a stage degrades.
type StageHealthMonitor = obs.Monitor

// StageHealthConfig parameterizes a StageHealthMonitor.
type StageHealthConfig = obs.Config

// StageScaler is the actuator a StageHealthMonitor drives; both
// Controller and OnlineController implement it.
type StageScaler = obs.Scaler

// NewStageHealthMonitor builds a monitor driving scaler (which may be
// nil and wired later with SetScaler).
func NewStageHealthMonitor(cfg StageHealthConfig, scaler StageScaler) *StageHealthMonitor {
	return obs.NewMonitor(cfg, scaler)
}

// ---- Closed-loop adaptation (adaptive α, β, demand) ----

// AdaptiveLoop periodically re-estimates the region inputs from live
// telemetry: per-stage β_j from sojourn-time tails, the effective
// urgency-inversion α from observed-vs-predicted stage delays, and
// per-class demand inflation from overrun-guard detections. Updates
// flow into a RegionSink (Controller or OnlineController) and only ever
// shrink the configured base region, so Theorem 1's guarantee is
// preserved. See DESIGN.md §8 and THEORY.md §7.
type AdaptiveLoop = adapt.Loop

// AdaptiveConfig configures an AdaptiveLoop; its Beta, Alpha, and Demand
// sections enable the three estimators independently.
type AdaptiveConfig = adapt.Config

// AdaptiveBetaConfig tunes the blocking-share (β) estimator.
type AdaptiveBetaConfig = adapt.BetaConfig

// AdaptiveAlphaConfig tunes the urgency-inversion (α) estimator.
type AdaptiveAlphaConfig = adapt.AlphaConfig

// AdaptiveDemandConfig tunes the per-class demand inflation estimator.
type AdaptiveDemandConfig = adapt.DemandConfig

// AdaptiveSources are the telemetry callbacks an AdaptiveLoop reads;
// PipelineOptions.Adapt wires them from the pipeline's own metrics
// automatically.
type AdaptiveSources = adapt.Sources

// RegionSink receives region-input updates from an AdaptiveLoop; both
// Controller and OnlineController implement it.
type RegionSink = adapt.RegionSink

// AdaptiveLoopStats is a snapshot of an AdaptiveLoop's state.
type AdaptiveLoopStats = adapt.LoopStats

// NewAdaptiveLoop builds an estimation loop over the base region,
// pushing updates into sink and reading telemetry from src. Drive it
// with Tick (manual), ScheduleSim (simulation), or Start (wall clock).
func NewAdaptiveLoop(cfg AdaptiveConfig, base Region, sink RegionSink, src AdaptiveSources) *AdaptiveLoop {
	return adapt.NewLoop(cfg, base, sink, src)
}

// ---- Graceful degradation (imprecise computation + overload governor) ----

// QualityLevels is the height of the discrete quality ladder: level 0
// executes mandatory demand only, level QualityLevels the full demand.
const QualityLevels = task.QualityLevels

// MandatoryUtility is the utility fraction a task delivers when it
// completes at mandatory-only quality; the optional part delivers the
// rest linearly across the ladder.
const MandatoryUtility = task.MandatoryUtility

// OverloadGovernor is the hysteresis state machine (Normal → Degraded →
// Shedding) that converts region headroom and overrun feedback into a
// quality cap for admissions and in-flight trims. Attach one to a
// Pipeline via PipelineOptions.Governor, or build one directly with
// NewOverloadGovernor for an OnlineController. See DESIGN.md §9.
type OverloadGovernor = degrade.Governor

// GovernorConfig tunes the governor's hysteresis thresholds; the zero
// value selects the defaults.
type GovernorConfig = degrade.Config

// GovernorInputs are the governor's sensor closures (region headroom,
// optional overrun counter).
type GovernorInputs = degrade.Inputs

// GovernorState is the governor's operating mode.
type GovernorState = degrade.State

// Governor operating modes, in order of increasing distress.
const (
	// GovernorNormal: admissions run at full quality.
	GovernorNormal = degrade.Normal
	// GovernorDegraded: the quality cap is below full; no evictions.
	GovernorDegraded = degrade.Degraded
	// GovernorShedding: the cap is mandatory-only and eviction is
	// permitted.
	GovernorShedding = degrade.Shedding
)

// GovernorStats is a snapshot of the governor's counters.
type GovernorStats = degrade.Stats

// NewOverloadGovernor builds a governor over the given sensors. Drive
// it with Tick (manual), ScheduleSim (simulation), or Start (wall
// clock).
func NewOverloadGovernor(cfg GovernorConfig, in GovernorInputs) *OverloadGovernor {
	return degrade.New(cfg, in)
}

// OrderVictims sorts tasks in place into the canonical victim order
// shared by eviction and degradation: least important first, then
// largest region contribution, then highest ID.
func OrderVictims(victims []*Task) { task.OrderVictims(victims) }

// ---- Synthetic-utilization curves (Figure 1) ----

// CurveRecorder records synthetic-utilization step curves from a
// Controller (wire Observe to Controller.OnUtilizationChange); it
// computes areas (the stage delay theorem's area property) and renders
// CSV or ASCII plots.
type CurveRecorder = curve.Recorder

// CurvePoint is one step of a recorded curve.
type CurvePoint = curve.Point

// NewCurveRecorder returns a recorder for the given number of stages
// with optional initial (reserved) levels.
func NewCurveRecorder(stages int, initial []float64) *CurveRecorder {
	return curve.NewRecorder(stages, initial)
}

// ---- Tracing ----

// TraceRecorder records admission and scheduling events for offline
// inspection; pass it via PipelineOptions.Trace.
type TraceRecorder = trace.Recorder

// TraceRecord is one traced event.
type TraceRecord = trace.Record

// TraceSpan is one contiguous execution interval reconstructed from a
// trace.
type TraceSpan = trace.Span

// NewTraceRecorder returns a recorder keeping at most max records
// (max ≤ 0: unbounded).
func NewTraceRecorder(max int) *TraceRecorder { return trace.New(max) }

// ---- Workload generation ----

// RNG is a deterministic random stream.
type RNG = dist.RNG

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG { return dist.NewRNG(seed) }

// WorkloadSpec describes the paper's §4 synthetic workload.
type WorkloadSpec = workload.PipelineSpec

// Source is an open-loop Poisson arrival generator.
type Source = workload.Source

// NewSource builds a generator feeding offer until horizon.
func NewSource(sim *Simulator, spec WorkloadSpec, seed int64, horizon float64, offer func(*Task)) *Source {
	return workload.NewSource(sim, spec, seed, horizon, offer)
}

// PeriodicStream is a periodic (optionally jittered) task stream.
type PeriodicStream = workload.PeriodicStream

// ClassSpec describes one request class in a mixed workload.
type ClassSpec = workload.ClassSpec

// MixedSource superposes per-class Poisson streams.
type MixedSource = workload.MixedSource

// NewMixedSource schedules all classes' arrivals into offer until
// horizon, with task IDs starting at firstID.
func NewMixedSource(sim *Simulator, stages int, classes []ClassSpec, seed int64, firstID TaskID, horizon float64, offer func(*Task)) *MixedSource {
	return workload.NewMixedSource(sim, stages, classes, seed, firstID, horizon, offer)
}

// Distribution is a probability distribution for workload parameters.
type Distribution = dist.Distribution

// NewExponential returns an exponential distribution with the given mean.
func NewExponential(mean float64) Distribution { return dist.NewExponential(mean) }

// NewUniform returns a uniform distribution on [low, high].
func NewUniform(low, high float64) Distribution { return dist.NewUniform(low, high) }

// NewDeterministic returns a point distribution.
func NewDeterministic(v float64) Distribution { return dist.NewDeterministic(v) }

// NewBoundedPareto returns a bounded Pareto distribution (heavy tails).
func NewBoundedPareto(alpha, low, high float64) Distribution { return dist.NewPareto(alpha, low, high) }

// TSCE is the Table 1 Total Ship Computing Environment scenario.
type TSCE = workload.TSCE

// NewTSCE returns the paper's Table 1 parameters.
func NewTSCE() TSCE { return workload.NewTSCE() }

// ---- Trace recording and replay ----

// TraceWriter streams workload records into the binary trace format.
type TraceWriter = workload.TraceWriter

// NewTraceWriter writes a binary trace header and returns the record
// writer; classes may be nil for an unclassed trace.
func NewTraceWriter(w io.Writer, stages int, classes []string) (*TraceWriter, error) {
	return workload.NewTraceWriter(w, stages, classes)
}

// TraceReader streams records from a binary trace with O(1) memory.
type TraceReader = workload.TraceReader

// WorkloadTraceRecord is one decoded binary workload-trace record
// (named apart from TraceRecord, the execution-trace event).
type WorkloadTraceRecord = workload.TraceRecord

// OpenTrace validates a binary trace header and positions the reader at
// the first record.
func OpenTrace(r io.Reader) (*TraceReader, error) { return workload.OpenTrace(r) }

// ImportTraceCSV converts a CSV trace to the binary format, streaming
// row by row; rows must already be ordered by arrival.
func ImportTraceCSV(r io.Reader, w io.Writer) (uint64, error) { return workload.ImportCSV(r, w) }

// ReplayOptions are the stress knobs of a trace replay (time
// compression, rate multiplication, limits).
type ReplayOptions = workload.ReplayOptions

// Replayer streams a binary trace through a simulator with one pending
// arrival event at a time.
type Replayer = workload.Replayer

// NewReplayer wraps an open trace reader for streaming replay into
// offer. Every record arrives as one reused task value, so offer must
// not keep the pointer; the pipelines' Offer copies what it keeps.
func NewReplayer(sim *Simulator, tr *TraceReader, opts ReplayOptions, offer func(*Task)) (*Replayer, error) {
	return workload.NewReplayer(sim, tr, opts, offer)
}

// Scenario is a declarative workload specification: a diurnal rate
// curve, user-class cohorts, and flash crowds, compiled into a live
// generator or recorded straight into a binary trace.
type Scenario = workload.Scenario

// RatePoint is one breakpoint of a scenario's piecewise-linear rate
// curve.
type RatePoint = workload.RatePoint

// Cohort is one user class inside a scenario.
type Cohort = workload.Cohort

// FlashCrowd is a temporary rate surge layered on a scenario's curve.
type FlashCrowd = workload.FlashCrowd
