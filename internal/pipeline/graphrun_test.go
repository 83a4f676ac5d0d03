package pipeline

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
	"feasregion/internal/trace"
)

// chainGraph builds the degenerate pipeline graph: node j runs on
// resource j with the given demands, with edges 0->1->...->n-1.
func chainGraph(demands ...float64) *task.Graph {
	g := task.NewGraph()
	for j, d := range demands {
		g.AddNode(j, task.NewSubtask(d))
		if j > 0 {
			g.AddEdge(j-1, j)
		}
	}
	return g
}

// figure3Graph builds the paper's Figure 3 DAG: node 0 -> {1, 2} -> 3 on
// resources 0..3 with the given demands.
func figure3Graph(d1, d2, d3, d4 float64) *task.Graph {
	g := task.NewGraph()
	n1 := g.AddNode(0, task.NewSubtask(d1))
	n2 := g.AddNode(1, task.NewSubtask(d2))
	n3 := g.AddNode(2, task.NewSubtask(d3))
	n4 := g.AddNode(3, task.NewSubtask(d4))
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, n4)
	g.AddEdge(n3, n4)
	return g
}

func TestGraphExecutionParallelBranches(t *testing.T) {
	sim := des.New()
	gs := NewGraphSystem(sim, GraphOptions{Resources: 4, NoAdmission: true})
	sim.At(0, func() { gs.BeginMeasurement() })
	g := figure3Graph(1, 2, 5, 1)
	tk := &task.Task{ID: 1, Arrival: 0, Deadline: 100, Graph: g}
	sim.At(0, func() { gs.Offer(tk) })
	sim.Run()
	m := gs.Snapshot()
	if m.Completed != 1 {
		t.Fatalf("completed %d", m.Completed)
	}
	// Unloaded: response = d1 + max(d2, d3) + d4 = 1 + 5 + 1.
	if got := m.ResponseTimes.Mean(); got != 7 {
		t.Fatalf("response %v, want 7 (parallel branches overlap)", got)
	}
}

func TestGraphExecutionJoinWaitsForAllPredecessors(t *testing.T) {
	sim := des.New()
	gs := NewGraphSystem(sim, GraphOptions{Resources: 4, NoAdmission: true})
	sim.At(0, func() { gs.BeginMeasurement() })
	// Make branch demands equal: the join must run exactly once.
	g := figure3Graph(1, 3, 3, 2)
	sim.At(0, func() { gs.Offer(&task.Task{ID: 1, Deadline: 100, Graph: g}) })
	sim.Run()
	if got := gs.Resource(3).Stats().Completed; got != 1 {
		t.Fatalf("join node executed %d times, want 1", got)
	}
	if got := gs.Snapshot().ResponseTimes.Mean(); got != 6 {
		t.Fatalf("response %v, want 6", got)
	}
}

func TestGraphSharedResourceSerializes(t *testing.T) {
	// Two parallel branch nodes on the SAME resource must serialize.
	sim := des.New()
	gs := NewGraphSystem(sim, GraphOptions{Resources: 2, NoAdmission: true})
	sim.At(0, func() { gs.BeginMeasurement() })
	g := task.NewGraph()
	n1 := g.AddNode(0, task.NewSubtask(1))
	n2 := g.AddNode(1, task.NewSubtask(2))
	n3 := g.AddNode(1, task.NewSubtask(2)) // same resource as n2
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	sim.At(0, func() { gs.Offer(&task.Task{ID: 1, Deadline: 100, Graph: g}) })
	sim.Run()
	// 1 + (2+2 serialized) = 5.
	if got := gs.Snapshot().ResponseTimes.Mean(); got != 5 {
		t.Fatalf("response %v, want 5 (shared resource serializes)", got)
	}
}

func TestGraphAdmissionControlsLoad(t *testing.T) {
	sim := des.New()
	gs := NewGraphSystem(sim, GraphOptions{Resources: 4})
	sim.At(0, func() { gs.BeginMeasurement() })
	g := figure3Graph(1, 1, 1, 1)
	admitted := 0
	sim.At(0, func() {
		for i := 0; i < 50; i++ {
			if gs.Offer(&task.Task{ID: task.ID(i), Deadline: 10, Graph: g}) {
				admitted++
			}
		}
	})
	sim.Run()
	if admitted == 0 || admitted == 50 {
		t.Fatalf("admitted %d of 50, expected partial", admitted)
	}
	m := gs.Snapshot()
	if m.Missed != 0 {
		t.Fatalf("admitted DAG tasks missed deadlines: %d of %d", m.Missed, m.Completed)
	}
}

// TestGraphSoundnessRandomized: Theorem 2 admission + DM keeps every
// admitted Figure 3 task inside its deadline under random arrivals.
func TestGraphSoundnessRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sim := des.New()
	gs := NewGraphSystem(sim, GraphOptions{Resources: 4})
	sim.At(0, func() { gs.BeginMeasurement() })
	rng := dist.NewRNG(13)
	// One shared shape (utilization deltas per resource are per-task, so
	// shape reuse is realistic and exercises the shape registry).
	shape := figure3Graph(1, 1, 1, 1)
	at := 0.0
	for i := 0; i < 4000; i++ {
		at += rng.ExpFloat64() * 0.4
		d := 5 + rng.Float64()*45
		demands := []float64{rng.ExpFloat64(), rng.ExpFloat64(), rng.ExpFloat64(), rng.ExpFloat64()}
		g := figure3Graph(demands[0], demands[1], demands[2], demands[3])
		_ = shape
		id := task.ID(i)
		sim.At(at, func() {
			gs.Offer(&task.Task{ID: id, Arrival: at, Deadline: d, Graph: g})
		})
	}
	sim.Run()
	m := gs.Snapshot()
	if m.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if m.Missed != 0 {
		t.Fatalf("%d of %d admitted DAG tasks missed deadlines", m.Missed, m.Completed)
	}
}

func TestGraphSystemValidation(t *testing.T) {
	sim := des.New()
	if got := func() (r any) {
		defer func() { r = recover() }()
		NewGraphSystem(sim, GraphOptions{Resources: 0})
		return nil
	}(); got == nil {
		t.Fatal("expected panic for zero resources")
	}
	gs := NewGraphSystem(sim, GraphOptions{Resources: 1, NoAdmission: true})
	if got := func() (r any) {
		defer func() { r = recover() }()
		gs.Offer(task.Chain(1, 0, 1, 1)) // chain task, no graph
		return nil
	}(); got == nil {
		t.Fatal("expected panic for graphless task")
	}
}

func TestGraphUtilizationMeasurement(t *testing.T) {
	sim := des.New()
	gs := NewGraphSystem(sim, GraphOptions{Resources: 2, NoAdmission: true})
	sim.At(0, func() { gs.BeginMeasurement() })
	g := chainGraph(4, 1)
	sim.At(0, func() { gs.Offer(&task.Task{ID: 1, Deadline: 100, Graph: g}) })
	sim.At(10, func() {
		m := gs.Snapshot()
		if math.Abs(m.StageUtilization[0]-0.4) > 1e-9 {
			t.Errorf("resource 0 utilization %v, want 0.4", m.StageUtilization[0])
		}
		if math.Abs(m.StageUtilization[1]-0.1) > 1e-9 {
			t.Errorf("resource 1 utilization %v, want 0.1", m.StageUtilization[1])
		}
		if m.BottleneckUtilization != m.StageUtilization[0] {
			t.Error("bottleneck must be resource 0")
		}
	})
	sim.Run()
}

func TestGraphSystemTracing(t *testing.T) {
	sim := des.New()
	rec := trace.New(0)
	gs := NewGraphSystem(sim, GraphOptions{Resources: 4, NoAdmission: true, Trace: rec})
	sim.At(0, func() { gs.BeginMeasurement() })
	g := figure3Graph(1, 2, 3, 1)
	sim.At(0, func() { gs.Offer(&task.Task{ID: 1, Deadline: 100, Graph: g}) })
	sim.Run()
	starts, completes := 0, 0
	for _, r := range rec.Records() {
		switch r.Kind {
		case "start":
			starts++
		case "complete":
			completes++
		}
	}
	if starts != 4 || completes != 4 {
		t.Fatalf("starts/completes = %d/%d, want 4/4 (one per node)", starts, completes)
	}
}

func TestGraphSystemReservedAndWaitQueue(t *testing.T) {
	// Certified critical DAG flows run against a reservation while
	// dynamic flows are admitted with a hold — §5 applied to Theorem 2.
	sim := des.New()
	gs := NewGraphSystem(sim, GraphOptions{
		Resources: 2,
		Reserved:  []float64{0.3, 0.1},
		MaxWait:   3,
	})
	sim.At(0, func() { gs.BeginMeasurement() })

	// A critical flow (covered by the reservation) is injected periodically.
	for k := 0; k < 5; k++ {
		at := float64(k) * 10
		id := task.ID(1000 + k)
		sim.At(at, func() {
			gs.Inject(&task.Task{ID: id, Arrival: at, Deadline: 10, Graph: chainGraph(3, 1)})
		})
	}
	// Dynamic flows: the first fills remaining capacity, the second holds
	// until the first's deadline decrement frees it.
	entered := 0
	sim.At(0, func() {
		if gs.Offer(&task.Task{ID: 1, Arrival: 0, Deadline: 10, Graph: chainGraph(1.5, 1)}) {
			entered++
		}
		gs.Offer(&task.Task{ID: 2, Arrival: 0, Deadline: 30, Graph: chainGraph(4, 1)})
	})
	sim.Run()
	m := gs.Snapshot()
	if m.Missed != 0 {
		t.Fatalf("missed %d", m.Missed)
	}
	ws := gs.WaitQueue().Stats()
	if ws.AdmittedImmediately < 1 {
		t.Fatalf("wait queue stats %+v", ws)
	}
	if ws.AdmittedAfterWait+ws.TimedOut == 0 {
		t.Fatalf("second dynamic flow neither admitted late nor timed out: %+v", ws)
	}
	if m.Completed < 6 {
		t.Fatalf("completed %d, want the critical flows plus dynamics", m.Completed)
	}
}
