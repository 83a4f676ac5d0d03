package pipeline

import (
	"fmt"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/task"
)

// MultiServerOptions configures a MultiServerPipeline.
type MultiServerOptions struct {
	// Stages is the pipeline length.
	Stages int
	// Servers is the number of identical CPUs at each stage.
	Servers int
	// Policy assigns priorities; nil selects deadline-monotonic.
	Policy task.Policy
	// Alpha is the scheduling policy's urgency-inversion parameter.
	Alpha float64
}

// MultiServerPipeline extends the paper's model to stages with multiple
// identical CPUs using *partitioned* dispatch, which reduces exactly to
// the paper's theory: each CPU is an independent resource, an admitted
// task is bound to one CPU per stage (the least-utilized at admission),
// and its feasibility condition is the chain condition over the chosen
// CPUs (Theorem 2 with a path through the resource grid). No new
// analysis is needed — the guarantee is inherited per virtual pipeline.
type MultiServerPipeline struct {
	gs      *GraphSystem
	stages  int
	servers int
}

// NewMultiServerPipeline builds the partitioned multiprocessor pipeline.
func NewMultiServerPipeline(sim *des.Simulator, opts MultiServerOptions) *MultiServerPipeline {
	if opts.Stages <= 0 || opts.Servers <= 0 {
		panic(fmt.Sprintf("pipeline: need positive stages and servers, got %d×%d", opts.Stages, opts.Servers))
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = 1
	}
	gs := NewGraphSystem(sim, GraphOptions{
		Resources: opts.Stages * opts.Servers,
		Policy:    opts.Policy,
		Alpha:     alpha,
	})
	return &MultiServerPipeline{gs: gs, stages: opts.Stages, servers: opts.Servers}
}

// resource maps (stage, server) to the flat resource index.
func (m *MultiServerPipeline) resource(stage, server int) int {
	return stage*m.servers + server
}

// Offer admits and starts a chain task: for each stage the least-
// utilized CPU is chosen, the task is rewritten as a chain over those
// CPUs, and Theorem 2 admission decides. It reports whether the task
// entered service. The caller may reuse t once Offer returns.
func (m *MultiServerPipeline) Offer(t *task.Task) bool {
	if len(t.Subtasks) != m.stages {
		panic(fmt.Sprintf("pipeline: task %d has %d subtasks for %d stages", t.ID, len(t.Subtasks), m.stages))
	}
	utils := m.gs.Controller().Utilizations()
	g := task.NewGraph()
	prev := -1
	for j, sub := range t.Subtasks {
		best := 0
		for c := 1; c < m.servers; c++ {
			if utils[m.resource(j, c)] < utils[m.resource(j, best)] {
				best = c
			}
		}
		n := g.AddNode(m.resource(j, best), sub)
		if prev >= 0 {
			g.AddEdge(prev, n)
		}
		prev = n
	}
	bound := &task.Task{
		ID: t.ID, Arrival: t.Arrival, Deadline: t.Deadline,
		Graph: g, Importance: t.Importance, Class: t.Class,
	}
	return m.gs.Offer(bound)
}

// Controller exposes the underlying Theorem 2 controller.
func (m *MultiServerPipeline) Controller() *core.GraphController { return m.gs.Controller() }

// BeginMeasurement starts the statistics window.
func (m *MultiServerPipeline) BeginMeasurement() { m.gs.BeginMeasurement() }

// OnComplete registers the measurement window's completion callback.
func (m *MultiServerPipeline) OnComplete(fn func(response float64, missed bool)) { m.gs.OnComplete(fn) }

// Snapshot computes metrics over the measurement window; stage
// utilizations are per-CPU (Stages×Servers entries).
func (m *MultiServerPipeline) Snapshot() Metrics { return m.gs.Snapshot() }

// AggregateStageUtilization sums per-CPU utilization within each stage,
// so a K-server stage can report up to K.
func (m *MultiServerPipeline) AggregateStageUtilization(snap Metrics) []float64 {
	agg := make([]float64, m.stages)
	for j := 0; j < m.stages; j++ {
		for c := 0; c < m.servers; c++ {
			agg[j] += snap.StageUtilization[m.resource(j, c)]
		}
	}
	return agg
}
