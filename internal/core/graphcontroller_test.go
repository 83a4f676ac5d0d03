package core

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// graphArrival is one task of a seeded DAG arrival stream: its arrival
// time, relative deadline, structure and per-node demands.
type graphArrival struct {
	at, deadline float64
	kind         int
	demands      []float64
}

// graphStream draws n arrivals over three resources. The structures
// differ in their Theorem 2 paths, so whether one fits depends on which
// others are active: a chain over all three resources, a single node on
// resource 0, and a fork-join from resource 0 over 1 and 2.
func graphStream(seed int64, n int) []graphArrival {
	rng := dist.NewRNG(seed)
	out := make([]graphArrival, n)
	at := 0.0
	for i := range out {
		at += rng.ExpFloat64() * 0.4
		kind := rng.Intn(3)
		nodes := []int{3, 1, 4}[kind]
		ds := make([]float64, nodes)
		for j := range ds {
			ds[j] = 0.2 + rng.Float64()
		}
		out[i] = graphArrival{at: at, deadline: 8 + 8*rng.Float64(), kind: kind, demands: ds}
	}
	return out
}

// build writes the arrival's structure and demands into g, reusing its
// slices.
func (a graphArrival) build(g *task.Graph) {
	g.Nodes, g.Edges = g.Nodes[:0], g.Edges[:0]
	switch a.kind {
	case 0: // chain 0 -> 1 -> 2
		for j, d := range a.demands {
			g.AddNode(j, task.NewSubtask(d))
			if j > 0 {
				g.AddEdge(j-1, j)
			}
		}
	case 1: // one node on resource 0
		g.AddNode(0, task.NewSubtask(a.demands[0]))
	default: // fork-join 0 -> {1, 2} -> 0
		for j, r := range []int{0, 1, 2, 0} {
			g.AddNode(r, task.NewSubtask(a.demands[j]))
		}
		g.AddEdge(0, 1)
		g.AddEdge(0, 2)
		g.AddEdge(1, 3)
		g.AddEdge(2, 3)
	}
}

// runGraphStream replays the arrivals through a fresh controller and
// returns its decisions. With reuse, every task carries one graph value
// that is rewritten to the next arrival's structure right after each
// TryAdmit; otherwise each task gets a graph of its own.
func runGraphStream(arrivals []graphArrival, reuse bool) []bool {
	sim := des.New()
	c := NewGraphController(sim, 3, 1, nil)
	shared := task.NewGraph()
	if reuse {
		arrivals[0].build(shared)
	}
	var got []bool
	for i, a := range arrivals {
		i, a := i, a
		sim.At(a.at, func() {
			g := shared
			if !reuse {
				g = task.NewGraph()
				a.build(g)
			}
			got = append(got, c.TryAdmit(&task.Task{ID: task.ID(i), Arrival: a.at, Deadline: a.deadline, Graph: g}))
			if reuse && i+1 < len(arrivals) {
				arrivals[i+1].build(shared)
			}
		})
	}
	sim.Run()
	return got
}

// TestGraphControllerOwnsAdmittedShapes: the controller keeps its own
// copy of each admitted structure, so a caller that rewrites one graph
// value after every TryAdmit gets the decisions of a caller that gives
// every task a fresh graph.
func TestGraphControllerOwnsAdmittedShapes(t *testing.T) {
	arrivals := graphStream(11, 400)
	fresh := runGraphStream(arrivals, false)
	reused := runGraphStream(arrivals, true)
	admitted, rejected := 0, 0
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("arrival %d: fresh graphs decide %v, one rewritten graph decides %v", i, fresh[i], reused[i])
		}
		if fresh[i] {
			admitted++
		} else {
			rejected++
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("stream exercises one outcome only: %d admitted, %d rejected", admitted, rejected)
	}
}

// TestGraphControllerOneShapePerStructure: admissions of one structure
// through distinct graph values share one shape entry, which goes when
// the last of them expires.
func TestGraphControllerOneShapePerStructure(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 2, 1, nil)
	const n = 20
	for i := 0; i < n; i++ {
		if !c.TryAdmit(&task.Task{ID: task.ID(i), Deadline: 100, Graph: chainGraph(0.1, 0.1)}) {
			t.Fatalf("admission %d rejected", i)
		}
	}
	if len(c.shapes) != 1 {
		t.Fatalf("%d admissions of one structure hold %d shape entries, want 1", n, len(c.shapes))
	}
	sim.Run()
	if len(c.shapes) != 0 {
		t.Fatalf("%d shape entries after every task expired, want 0", len(c.shapes))
	}
}

// TestGraphControllerSteadyStateAllocationFree: admitting and expiring
// tasks of a structure that stays active allocates nothing.
func TestGraphControllerSteadyStateAllocationFree(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 3, 1, nil)
	g := task.NewGraph()
	graphArrival{kind: 2, demands: []float64{0.1, 0.1, 0.1, 0.1}}.build(g)
	if !c.TryAdmit(&task.Task{ID: 0, Deadline: 1e9, Graph: g}) { // keeps the shape active
		t.Fatal("anchor task rejected")
	}
	tk := &task.Task{ID: 1, Deadline: 1, Graph: g}
	const cycles = 100
	run := func() {
		for i := 0; i < cycles; i++ {
			tk.Arrival = sim.Now()
			if !c.TryAdmit(tk) {
				t.Fatal("admission rejected")
			}
			sim.RunUntil(sim.Now() + 2) // the deadline decrement
		}
	}
	run() // warm the timer pool and scratch
	// Ten runs of many cycles: AllocsPerRun truncates the per-run mean,
	// so a stray runtime allocation reads 0 and one per run reads 1.
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("%d admit + expiry cycles: %v allocs, want 0", cycles, allocs)
	}
}

// TestGraphControllerRejectsMalformed is TestMalformedTasksRejected for
// the DAG controller: a node demand that charges a negative or
// non-finite increment, a node on a negative resource, or a deadline
// that is not positive and finite, is rejected and charges nothing.
func TestGraphControllerRejectsMalformed(t *testing.T) {
	graph := func(d0, d1 float64) *task.Graph {
		g := task.NewGraph()
		g.AddNode(0, task.NewSubtask(d0))
		g.AddNode(1, task.NewSubtask(d1))
		return g
	}
	offResources := task.NewGraph()
	offResources.AddNode(-1, task.NewSubtask(1))
	inf, nan := math.Inf(1), math.NaN()
	bad := []*task.Task{
		{ID: 1, Deadline: 10, Graph: graph(-4, 0.1)},
		{ID: 2, Deadline: inf, Graph: graph(1, 1)},
		{ID: 3, Deadline: nan, Graph: graph(1, 1)},
		{ID: 4, Deadline: 10, Graph: graph(nan, 1)},
		{ID: 5, Deadline: 10, Graph: graph(1, inf)},
		{ID: 7, Deadline: 10, Graph: offResources},
	}
	sim := des.New()
	c := NewGraphController(sim, 2, 1, nil)
	for _, tk := range bad {
		if c.WouldAdmit(tk) || c.TryAdmit(tk) {
			t.Errorf("task %d admitted", tk.ID)
		}
	}
	if s := c.Stats(); s.Rejected != uint64(len(bad)) || s.Admitted != 0 {
		t.Fatalf("stats %+v, want %d rejected and none admitted", s, len(bad))
	}
	for j, u := range c.Utilizations() {
		if u != 0 {
			t.Fatalf("resource %d charged %v by rejected tasks", j, u)
		}
	}
	if !c.TryAdmit(&task.Task{ID: 6, Deadline: 8, Graph: graph(1, 1)}) {
		t.Fatal("well-formed task rejected")
	}
	sim.Run()
	if now := sim.Now(); now != 8 {
		t.Fatalf("simulator drained to %v, want the admitted task's deadline 8", now)
	}
}
