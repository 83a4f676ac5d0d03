package pipeline

import (
	"fmt"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/sched"
	"feasregion/internal/task"
	"feasregion/internal/trace"
)

// GraphOptions configures a GraphSystem.
type GraphOptions struct {
	// Resources is the number of independent resources (CPUs). Required.
	Resources int
	// Policy assigns priorities; nil selects deadline-monotonic.
	Policy task.Policy
	// NoAdmission disables the Theorem 2 admission controller.
	NoAdmission bool
	// Alpha is the policy's urgency-inversion parameter (default 1).
	Alpha float64
	// Betas holds optional per-resource normalized blocking terms.
	Betas []float64
	// Reserved sets per-resource reserved synthetic-utilization floors
	// for pre-certified critical DAG tasks (§5).
	Reserved []float64
	// MaxWait, when positive, holds non-admissible arrivals for up to
	// this long (the §5 hold applied to DAG tasks).
	MaxWait float64
	// DisableIdleReset detaches idle-reset hooks (ablation).
	DisableIdleReset bool
	// PriorityRNG seeds randomized policies.
	PriorityRNG *dist.RNG
	// Trace, when non-nil, records scheduling events per resource.
	Trace *trace.Recorder
}

// GraphSystem executes DAG-structured tasks (paper §3.3) over a set of
// independent preemptive fixed-priority resources, with Theorem 2
// admission control.
type GraphSystem struct {
	sim       *des.Simulator
	resources []*sched.Stage
	ctrl      *core.GraphController
	wq        *core.WaitQueue
	policy    task.Policy
	prng      *dist.RNG

	window
}

// NewGraphSystem builds a DAG execution system on the simulator.
func NewGraphSystem(sim *des.Simulator, opts GraphOptions) *GraphSystem {
	if opts.Resources <= 0 {
		panic(fmt.Sprintf("pipeline: need at least one resource, got %d", opts.Resources))
	}
	g := &GraphSystem{sim: sim, policy: opts.Policy, prng: opts.PriorityRNG}
	if g.policy == nil {
		g.policy = task.DeadlineMonotonic{}
	}
	if g.prng == nil {
		g.prng = dist.NewRNG(0x5eed)
	}
	for k := 0; k < opts.Resources; k++ {
		st := sched.New(sim, fmt.Sprintf("resource-%d", k))
		if opts.Trace != nil {
			rec := opts.Trace
			st.OnEvent(func(e sched.Event) {
				rec.Add(trace.Record{Time: e.Time, Source: e.Stage, Task: e.Task, Kind: e.Kind.String()})
			})
		}
		g.resources = append(g.resources, st)
	}
	if !opts.NoAdmission {
		alpha := opts.Alpha
		if alpha == 0 {
			alpha = 1
		}
		g.ctrl = core.NewGraphController(sim, opts.Resources, alpha, opts.Betas)
		if opts.Reserved != nil {
			g.ctrl.SetReserved(opts.Reserved)
		}
		if opts.MaxWait > 0 {
			g.wq = core.NewGraphWaitQueue(sim, g.ctrl, opts.MaxWait, func(t *task.Task) { g.run(t) })
		}
		if !opts.DisableIdleReset {
			for k := range g.resources {
				k := k
				g.resources[k].OnIdle(func(des.Time) { g.ctrl.HandleResourceIdle(k) })
			}
		}
	}
	return g
}

// Controller returns the Theorem 2 admission controller (nil when
// admission is disabled).
func (g *GraphSystem) Controller() *core.GraphController { return g.ctrl }

// WaitQueue returns the hold queue, or nil when not configured.
func (g *GraphSystem) WaitQueue() *core.WaitQueue { return g.wq }

// Resource returns the k-th resource's scheduler.
func (g *GraphSystem) Resource(k int) *sched.Stage { return g.resources[k] }

// Offer presents an arriving DAG task: priority assignment, Theorem 2
// admission, then execution. With a wait queue configured the task may
// instead be held; Offer then returns false and the task may still enter
// later. It reports whether the task entered service immediately. Offer
// sets t.Priority; the system copies t and its graph only when it keeps
// them (to hold or to run), so the caller may reuse t once Offer returns
// and a rejected arrival copies nothing.
func (g *GraphSystem) Offer(t *task.Task) bool {
	t.Priority = g.policy.Assign(t, g.prng)
	if g.wq != nil {
		g.wq.Submit(own(t))
		return false
	}
	if g.ctrl != nil && !g.ctrl.TryAdmit(t) {
		return false
	}
	g.run(own(t))
	return true
}

// Inject bypasses admission and starts the DAG task immediately — for
// certified critical tasks covered by the reserved floors. Like Offer,
// it copies the task it keeps.
func (g *GraphSystem) Inject(t *task.Task) {
	t.Priority = g.policy.Assign(t, g.prng)
	g.run(own(t))
}

// own copies a DAG task and its graph's nodes and edges: run executes
// the graph after Offer or Inject returns, and a wait queue holds the
// task.
func own(t *task.Task) *task.Task {
	c := *t
	if g := t.Graph; g != nil {
		c.Graph = &task.Graph{Nodes: append([]task.Node(nil), g.Nodes...), Edges: make([][]int, len(g.Edges))}
		for i, succs := range g.Edges {
			c.Graph.Edges[i] = append([]int(nil), succs...)
		}
	}
	return &c
}

// run executes the task's DAG: source nodes start at once; each
// completion releases its successors; the task finishes when every node
// has completed.
func (g *GraphSystem) run(t *task.Task) {
	graph := t.Graph
	if graph == nil {
		panic(fmt.Sprintf("pipeline: task %d offered to GraphSystem without a graph", t.ID))
	}
	indeg := graph.Predecessors()
	remaining := len(graph.Nodes)
	// perResource counts the task's unfinished nodes per resource, for
	// departure marking (idle reset eligibility).
	perResource := map[int]int{}
	for _, n := range graph.Nodes {
		perResource[n.Resource]++
	}

	var submit func(node int)
	var onDone func(node int, now des.Time)

	onDone = func(node int, now des.Time) {
		res := graph.Nodes[node].Resource
		if perResource[res]--; perResource[res] == 0 && g.ctrl != nil {
			g.ctrl.MarkDeparted(res, t.ID)
		}
		if remaining--; remaining == 0 {
			if g.measuring {
				g.complete(now-t.Arrival, now > t.AbsoluteDeadline()+1e-9)
			}
			return
		}
		for _, succ := range graph.Edges[node] {
			if indeg[succ]--; indeg[succ] == 0 {
				submit(succ)
			}
		}
	}

	submit = func(node int) {
		n := graph.Nodes[node]
		if n.Resource >= len(g.resources) {
			panic(fmt.Sprintf("pipeline: task %d node %d on unknown resource %d", t.ID, node, n.Resource))
		}
		g.resources[n.Resource].Submit(t.ID, t.Priority, n.Subtask, func(now des.Time) {
			onDone(node, now)
		})
	}

	for i, d := range indeg {
		if d == 0 {
			submit(i)
		}
	}
}

// BeginMeasurement starts the statistics window.
func (g *GraphSystem) BeginMeasurement() { g.begin(g.sim.Now(), g.resources) }

// Snapshot computes metrics over [BeginMeasurement, now].
func (g *GraphSystem) Snapshot() Metrics { return g.snapshot(g.sim.Now(), g.resources) }
