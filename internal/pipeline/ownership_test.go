package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"feasregion/internal/cluster"
	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/metrics"
	"feasregion/internal/task"
)

// ownSpec is one arrival of the ownership test's stream.
type ownSpec struct {
	id         task.ID
	at, dl     float64
	demands    []float64
	optional   float64 // optional share of every stage's demand
	importance float64
	class      string
}

// ownSpecs draws a seeded overload stream over the given number of
// stages: mixed deadlines, importances, classes and optional shares.
func ownSpecs(n, stages int) []ownSpec {
	g := dist.NewRNG(11)
	classes := []string{"tracking", "batch", "control"}
	specs := make([]ownSpec, n)
	at := 0.0
	for i := range specs {
		at += g.ExpFloat64() / 12
		s := ownSpec{
			id:         task.ID(i),
			at:         at,
			dl:         0.6 + 1.4*g.Float64(),
			demands:    make([]float64, stages),
			importance: float64(1 + g.Intn(3)),
			class:      classes[g.Intn(len(classes))],
		}
		if g.Float64() < 0.5 {
			s.optional = 0.6
		}
		for j := range s.demands {
			s.demands[j] = 0.1 * g.ExpFloat64()
		}
		specs[i] = s
	}
	return specs
}

// chain writes the spec into t as a chain task, reusing t's subtask
// backing array.
func (s ownSpec) chain(t *task.Task) {
	subs := t.Subtasks[:0]
	for _, d := range s.demands {
		subs = append(subs, task.Subtask{Demand: d, Optional: s.optional * d})
	}
	*t = task.Task{ID: s.id, Arrival: s.at, Deadline: s.dl, Subtasks: subs, Importance: s.importance, Class: s.class}
}

// graph writes the spec into t as a diamond DAG (node 0 before nodes 1
// and 2, both before node 3), reusing t's graph when it has one.
func (s ownSpec) graph(t *task.Task, resources int) {
	g := t.Graph
	if g == nil {
		g = task.NewGraph()
		for k := 0; k < 4; k++ {
			g.AddNode(0, task.Subtask{})
		}
		g.AddEdge(0, 1)
		g.AddEdge(0, 2)
		g.AddEdge(1, 3)
		g.AddEdge(2, 3)
	}
	for k := range g.Nodes {
		g.Nodes[k] = task.Node{Resource: (int(s.id) + k) % resources, Subtask: task.NewSubtask(s.demands[k])}
	}
	g.Edges[0][0], g.Edges[0][1] = 1, 2
	*t = task.Task{ID: s.id, Arrival: s.at, Deadline: s.dl, Graph: g, Importance: s.importance, Class: s.class}
}

// poison overwrites everything a retained pointer could read — ID,
// times, priority, importance, class, the subtasks and the graph in
// place — the way a caller reusing its task would.
func poison(t *task.Task, i int) {
	t.ID = task.ID(1<<40 + i)
	t.Arrival, t.Deadline, t.Priority = -1e6, 1e6, -1e9
	t.Importance, t.Class = 1e9, "poison"
	for j := range t.Subtasks {
		t.Subtasks[j] = task.Subtask{Demand: 1e3}
	}
	if g := t.Graph; g != nil {
		for k := range g.Nodes {
			g.Nodes[k] = task.Node{Subtask: task.NewSubtask(1e3)}
		}
		g.Edges[0][0] = 3 // node 0 would release node 3 instead of node 1
	}
}

// ownSystem is one system under the ownership test.
type ownSystem struct {
	offer func(i int, t *task.Task)
	state func() string // everything the system exposes
	fired func() bool   // the case's mechanism acted at least once
}

func pipelineState(p *Pipeline, reg *metrics.Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%v\n", p.Snapshot(), p.EnteredByClass())
	if wq := p.WaitQueue(); wq != nil {
		fmt.Fprintf(&b, "%+v\n", wq.Stats())
	}
	for j := 0; j < p.Stages(); j++ {
		fmt.Fprintf(&b, "%+v\n", p.Stage(j).Stats())
	}
	if reg != nil {
		if err := reg.WritePrometheus(&b); err != nil {
			panic(err)
		}
	}
	return b.String()
}

func graphState(g *GraphSystem, resources int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%v\n", g.Snapshot(), g.Controller().Utilizations())
	if wq := g.WaitQueue(); wq != nil {
		fmt.Fprintf(&b, "%+v\n", wq.Stats())
	}
	for k := 0; k < resources; k++ {
		fmt.Fprintf(&b, "%+v\n", g.Resource(k).Stats())
	}
	return b.String()
}

// pipelineCase builds a metrics-instrumented Pipeline; every tenth
// arrival is injected rather than offered.
func pipelineCase(opts Options, fired func(p *Pipeline) bool) func(*des.Simulator) ownSystem {
	return func(sim *des.Simulator) ownSystem {
		reg := metrics.NewRegistry()
		opts.Stages, opts.Metrics = 3, reg
		p := New(sim, opts)
		p.BeginMeasurement()
		return ownSystem{
			offer: func(i int, t *task.Task) {
				if i%10 == 9 {
					p.Inject(t)
				} else {
					p.Offer(t)
				}
			},
			state: func() string { return pipelineState(p, reg) },
			fired: func() bool { return fired(p) },
		}
	}
}

// graphCase builds a GraphSystem over three resources; every tenth
// arrival is injected rather than offered.
func graphCase(maxWait float64) func(*des.Simulator) ownSystem {
	return func(sim *des.Simulator) ownSystem {
		g := NewGraphSystem(sim, GraphOptions{Resources: 3, MaxWait: maxWait})
		g.BeginMeasurement()
		return ownSystem{
			offer: func(i int, t *task.Task) {
				if i%10 == 9 {
					g.Inject(t)
				} else {
					g.Offer(t)
				}
			},
			state: func() string { return graphState(g, 3) },
			fired: func() bool {
				m := g.Snapshot()
				if g.WaitQueue() != nil {
					return m.Completed > 0 && g.WaitQueue().Stats().AdmittedAfterWait > 0
				}
				return m.Completed > 0 && g.Controller().Stats().Rejected > 0
			},
		}
	}
}

// TestOfferDoesNotRetainTask drives one arrival stream through each
// system twice — once with a fresh task per arrival, once through a
// single task value the caller poisons as soon as each call returns —
// and requires identical metrics, stage statistics, per-class counts and
// /metrics text. A system that kept the caller's pointer (or its
// subtasks or graph) would run the poisoned values.
func TestOfferDoesNotRetainTask(t *testing.T) {
	underestimate := func(tk *task.Task, j int) float64 {
		if tk.Class == "batch" {
			return 0.7 * tk.StageDemand(j)
		}
		return tk.StageDemand(j)
	}
	cases := []struct {
		name  string
		graph bool // offer DAG tasks
		build func(*des.Simulator) ownSystem
	}{
		{"plain", false, pipelineCase(Options{}, func(p *Pipeline) bool {
			m := p.Snapshot()
			return m.Completed > 0 && m.EnteredService < m.Offered
		})},
		{"max-wait", false, pipelineCase(Options{MaxWait: 0.3}, func(p *Pipeline) bool {
			return p.WaitQueue().Stats().AdmittedAfterWait > 0
		})},
		{"degradation", false, pipelineCase(Options{EnableDegradation: true}, func(p *Pipeline) bool {
			return p.Snapshot().TrimmedTasks > 0
		})},
		{"shedding", false, pipelineCase(Options{EnableShedding: true}, func(p *Pipeline) bool {
			return p.Snapshot().Shed > 0
		})},
		{"guard-evict", false, pipelineCase(Options{
			OverrunPolicy: core.OverrunEvict, OverrunTolerance: 0.05, Estimator: underestimate,
		}, func(p *Pipeline) bool { return p.Snapshot().OverrunEvicted > 0 })},
		{"cluster", false, func(sim *des.Simulator) ownSystem {
			reg := metrics.NewRegistry()
			cp := NewCluster(sim, ClusterOptions{
				Stages: 3, Replicas: 2, Policy: cluster.PowerOfTwo, Seed: 7,
				Scaler: cluster.AutoscalerConfig{Min: 2, Max: 2}, Metrics: reg,
			})
			cp.BeginMeasurement()
			return ownSystem{
				offer: func(_ int, t *task.Task) { cp.Offer(t) },
				state: func() string {
					var b strings.Builder
					fmt.Fprintf(&b, "%+v\n", cp.Snapshot())
					for id := 0; cp.Pipe(id) != nil; id++ {
						b.WriteString(pipelineState(cp.Pipe(id), nil))
					}
					if err := reg.WritePrometheus(&b); err != nil {
						panic(err)
					}
					return b.String()
				},
				fired: func() bool { m := cp.Snapshot(); return m.Completed > 0 && m.Admitted < m.Offered },
			}
		}},
		{"graph", true, graphCase(0)},
		{"graph-max-wait", true, graphCase(0.3)},
		{"multi-server", false, func(sim *des.Simulator) ownSystem {
			m := NewMultiServerPipeline(sim, MultiServerOptions{Stages: 3, Servers: 2})
			m.BeginMeasurement()
			return ownSystem{
				offer: func(_ int, t *task.Task) { m.Offer(t) },
				state: func() string { return graphState(m.gs, 6) },
				fired: func() bool { return m.Snapshot().Completed > 0 },
			}
		}},
	}
	specs := ownSpecs(600, 4)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(reuse bool) (string, bool) {
				sim := des.New()
				sys := c.build(sim)
				var shared task.Task
				for i, s := range specs {
					i, s := i, s
					sim.At(s.at, func() {
						tk := &task.Task{}
						if reuse {
							tk = &shared
						}
						if c.graph {
							s.graph(tk, 3)
						} else {
							s.demands = s.demands[:3]
							s.chain(tk)
						}
						sys.offer(i, tk)
						if reuse {
							poison(tk, i)
						}
					})
				}
				sim.Run()
				return sys.state(), sys.fired()
			}
			fresh, fired := run(false)
			if !fired {
				t.Fatalf("the stream never exercised the %s mechanism:\n%s", c.name, fresh)
			}
			if reused, _ := run(true); reused != fresh {
				t.Fatalf("a reused, overwritten task changed the run:\nfresh:\n%s\nreused:\n%s", fresh, reused)
			}
		})
	}
}
