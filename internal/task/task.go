package task

import (
	"fmt"
	"math"
)

// ID identifies a task instance within one simulation run. IDs key the
// synthetic-utilization ledgers and departure marking, so they must be
// unique across ALL tasks offered or injected into one system —
// partition the ID space when combining independent generators.
type ID int64

// NoLock marks a segment that executes outside any critical section.
const NoLock = -1

// QualityLevels is the height of the discrete quality ladder used by
// imprecise (mandatory/optional) tasks. Level 0 executes mandatory demand
// only, level QualityLevels executes the full demand, and level q in
// between executes M_ij + O_ij*q/QualityLevels on every stage. A small
// discrete ladder keeps the quality binary search O(log QualityLevels)
// region tests and makes governor transitions observable.
const QualityLevels = 8

// MandatoryUtility is the fraction of a task's value delivered by
// completing only its mandatory parts. The imprecise-computation reward
// model is deliberately concave in demand: the mandatory prefix produces
// an acceptable (if coarse) result, so it carries a disproportionate
// share of the value. Each optional quality step adds an equal share of
// the remaining 1 - MandatoryUtility.
const MandatoryUtility = 0.5

// Segment is one contiguous piece of a subtask's execution. A segment with
// Lock != NoLock executes inside a critical section guarded by that
// stage-local lock (acquired at segment start, released at segment end).
type Segment struct {
	Duration float64
	Lock     int
}

// Subtask is the work a task performs on one pipeline stage (or DAG node's
// resource). Demand is the total computation time; Segments optionally
// partitions it into critical and non-critical pieces.
//
// Optional splits Demand into an imprecise-computation pair
// C_ij = M_ij + O_ij: the first Demand-Optional units are mandatory
// (the result is unacceptable without them) and the trailing Optional
// units refine it. Quality-aware admission may trim any prefix of the
// optional part; Optional = 0 reproduces the paper's all-or-nothing
// model. Optional demand cannot be combined with explicit Segments
// (critical sections are not skippable).
type Subtask struct {
	Demand   float64
	Optional float64
	Segments []Segment
}

// NewSubtask returns a subtask with a single non-critical segment.
func NewSubtask(demand float64) Subtask {
	return Subtask{Demand: demand}
}

// DemandAt returns the subtask's computation demand when executed at the
// given quality level: the mandatory part plus level/QualityLevels of the
// optional part. Levels outside [0, QualityLevels] are clamped.
func (s Subtask) DemandAt(level int) float64 {
	if s.Optional == 0 || level >= QualityLevels {
		return s.Demand
	}
	if level <= 0 {
		return s.Demand - s.Optional
	}
	return s.Demand - s.Optional*(1-float64(level)/QualityLevels)
}

// Validate checks that explicit segments, when present, sum to Demand.
func (s Subtask) Validate() error {
	if s.Demand < 0 || math.IsNaN(s.Demand) {
		return fmt.Errorf("task: subtask demand %v is negative or NaN", s.Demand)
	}
	if s.Optional < 0 || s.Optional > s.Demand || math.IsNaN(s.Optional) {
		return fmt.Errorf("task: optional demand %v outside [0, %v]", s.Optional, s.Demand)
	}
	if s.Optional > 0 && len(s.Segments) > 0 {
		return fmt.Errorf("task: optional demand cannot be combined with explicit segments")
	}
	if len(s.Segments) == 0 {
		return nil
	}
	sum := 0.0
	for i, seg := range s.Segments {
		if seg.Duration < 0 || math.IsNaN(seg.Duration) {
			return fmt.Errorf("task: segment %d duration %v is negative or NaN", i, seg.Duration)
		}
		sum += seg.Duration
	}
	if math.Abs(sum-s.Demand) > 1e-9*(1+s.Demand) {
		return fmt.Errorf("task: segments sum to %v, demand is %v", sum, s.Demand)
	}
	return nil
}

// Task is one aperiodic arrival: it enters the pipeline at Arrival and must
// depart the final stage by Arrival+Deadline. For chain (pipeline) tasks,
// Subtasks[j] is the work on stage j. For DAG tasks, set Graph instead and
// leave Subtasks nil.
type Task struct {
	ID       ID
	Arrival  float64 // A_i: arrival time at the first stage
	Deadline float64 // D_i: relative end-to-end deadline

	// Subtasks is the precedence-constrained chain, one entry per stage.
	Subtasks []Subtask

	// Graph, when non-nil, replaces Subtasks with an arbitrary DAG of
	// subtasks allocated to named resources (paper §3.3).
	Graph *Graph

	// Priority is the scheduler priority, fixed across all stages; lower
	// values are more urgent. It is assigned by a Policy before submission.
	Priority float64

	// Importance is the semantic importance used for load shedding in the
	// TSCE application (§5); larger is more important. It is independent of
	// the scheduling priority.
	Importance float64

	// Class labels the task's stream (e.g. "tracking") for statistics.
	Class string
}

// AbsoluteDeadline returns A_i + D_i.
func (t *Task) AbsoluteDeadline() float64 { return t.Arrival + t.Deadline }

// TotalDemand returns the sum of computation demands across all subtasks.
func (t *Task) TotalDemand() float64 {
	if t.Graph != nil {
		sum := 0.0
		for _, n := range t.Graph.Nodes {
			sum += n.Subtask.Demand
		}
		return sum
	}
	sum := 0.0
	for _, s := range t.Subtasks {
		sum += s.Demand
	}
	return sum
}

// StageDemand returns C_ij for stage j of a chain task. Out-of-range
// stages have zero demand.
func (t *Task) StageDemand(j int) float64 {
	if j < 0 || j >= len(t.Subtasks) {
		return 0
	}
	return t.Subtasks[j].Demand
}

// Contribution returns the synthetic-utilization increment C_ij/D_i this
// task adds to stage j while current.
func (t *Task) Contribution(j int) float64 {
	if t.Deadline <= 0 {
		return math.Inf(1)
	}
	return t.StageDemand(j) / t.Deadline
}

// StageDemandAt returns the demand of stage j when the task executes at
// the given quality level (see Subtask.DemandAt). Out-of-range stages
// have zero demand.
func (t *Task) StageDemandAt(j, level int) float64 {
	if j < 0 || j >= len(t.Subtasks) {
		return 0
	}
	return t.Subtasks[j].DemandAt(level)
}

// HasOptional reports whether any stage of the task carries optional
// demand, i.e. whether quality degradation can shrink it at all.
func (t *Task) HasOptional() bool {
	for _, s := range t.Subtasks {
		if s.Optional > 0 {
			return true
		}
	}
	return false
}

// Utility returns the value delivered by completing the task at the given
// quality level, normalized to [0, 1]: MandatoryUtility for a
// mandatory-only run, 1 for a full-quality run, linear in the level in
// between. Tasks with no optional demand always deliver 1. Rejected or
// evicted tasks deliver 0 (there is no level for them; callers simply do
// not count them).
func (t *Task) Utility(level int) float64 {
	if !t.HasOptional() || level >= QualityLevels {
		return 1
	}
	if level < 0 {
		level = 0
	}
	return MandatoryUtility + (1-MandatoryUtility)*float64(level)/QualityLevels
}

// SetOptionalFraction marks frac of every stage's demand as optional
// (clamped to [0, 1]) and returns the task, for fluent construction of
// imprecise chains. Stages with explicit segments are left untouched.
func (t *Task) SetOptionalFraction(frac float64) *Task {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	for j := range t.Subtasks {
		if len(t.Subtasks[j].Segments) > 0 {
			continue
		}
		t.Subtasks[j].Optional = t.Subtasks[j].Demand * frac
	}
	return t
}

// Validate checks structural invariants of the task.
func (t *Task) Validate() error {
	if t.Deadline <= 0 || math.IsNaN(t.Deadline) {
		return fmt.Errorf("task %d: deadline %v must be positive", t.ID, t.Deadline)
	}
	if t.Graph != nil {
		if len(t.Subtasks) > 0 {
			return fmt.Errorf("task %d: has both a subtask chain and a graph", t.ID)
		}
		return t.Graph.Validate()
	}
	if len(t.Subtasks) == 0 {
		return fmt.Errorf("task %d: has no subtasks", t.ID)
	}
	for j, s := range t.Subtasks {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("task %d stage %d: %w", t.ID, j, err)
		}
	}
	return nil
}

// Chain builds a chain task from plain per-stage demands.
func Chain(id ID, arrival, deadline float64, demands ...float64) *Task {
	subs := make([]Subtask, len(demands))
	for i, d := range demands {
		subs[i] = NewSubtask(d)
	}
	return &Task{ID: id, Arrival: arrival, Deadline: deadline, Subtasks: subs}
}
