package task

import (
	"math"
	"testing"
	"testing/quick"

	"feasregion/internal/dist"
)

func TestChainConstructor(t *testing.T) {
	tk := Chain(7, 10, 2, 0.5, 0.25, 0.75)
	if tk.ID != 7 || tk.Arrival != 10 || tk.Deadline != 2 {
		t.Fatalf("chain header wrong: %+v", tk)
	}
	if got := tk.TotalDemand(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("TotalDemand = %v, want 1.5", got)
	}
	if got := tk.AbsoluteDeadline(); got != 12 {
		t.Fatalf("AbsoluteDeadline = %v, want 12", got)
	}
	if err := tk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestStageDemandOutOfRange(t *testing.T) {
	tk := Chain(1, 0, 1, 0.3, 0.4)
	if tk.StageDemand(-1) != 0 || tk.StageDemand(2) != 0 {
		t.Fatal("out-of-range stage demand should be zero")
	}
	if tk.StageDemand(1) != 0.4 {
		t.Fatal("in-range stage demand wrong")
	}
}

func TestContribution(t *testing.T) {
	tk := Chain(1, 0, 4, 1, 2)
	if got := tk.Contribution(0); got != 0.25 {
		t.Fatalf("Contribution(0) = %v, want 0.25", got)
	}
	if got := tk.Contribution(1); got != 0.5 {
		t.Fatalf("Contribution(1) = %v, want 0.5", got)
	}
}

func TestValidateRejectsBadTasks(t *testing.T) {
	tests := []struct {
		name string
		tk   *Task
	}{
		{"zero deadline", Chain(1, 0, 0, 1)},
		{"negative deadline", Chain(1, 0, -1, 1)},
		{"no subtasks", &Task{ID: 1, Deadline: 1}},
		{"negative demand", Chain(1, 0, 1, -0.5)},
		{"chain and graph", func() *Task {
			tk := Chain(1, 0, 1, 0.5)
			tk.Graph = ChainGraph(0.5)
			return tk
		}()},
		{"segment sum mismatch", &Task{ID: 1, Deadline: 1, Subtasks: []Subtask{{
			Demand:   1,
			Segments: []Segment{{Duration: 0.3, Lock: NoLock}, {Duration: 0.3, Lock: 0}},
		}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.tk.Validate(); err == nil {
				t.Error("Validate accepted an invalid task")
			}
		})
	}
}

func TestValidateAcceptsSegmentedSubtask(t *testing.T) {
	tk := &Task{ID: 1, Deadline: 1, Subtasks: []Subtask{{
		Demand:   1,
		Segments: []Segment{{Duration: 0.3, Lock: NoLock}, {Duration: 0.5, Lock: 2}, {Duration: 0.2, Lock: NoLock}},
	}}}
	if err := tk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGraphTopoOrder(t *testing.T) {
	// Figure 3: 1 -> {2, 3} -> 4.
	g := NewGraph()
	n1 := g.AddNode(0, NewSubtask(1))
	n2 := g.AddNode(1, NewSubtask(1))
	n3 := g.AddNode(2, NewSubtask(1))
	n4 := g.AddNode(3, NewSubtask(1))
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, n4)
	g.AddEdge(n3, n4)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, n := range order {
		pos[n] = i
	}
	for u, succs := range g.Edges {
		for _, v := range succs {
			if pos[u] >= pos[v] {
				t.Fatalf("topological order violates edge %d->%d: %v", u, v, order)
			}
		}
	}
}

func TestGraphCycleDetected(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(0, NewSubtask(1))
	b := g.AddNode(1, NewSubtask(1))
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestGraphValidateRejectsBadEdges(t *testing.T) {
	g := NewGraph()
	g.AddNode(0, NewSubtask(1))
	g.Edges[0] = append(g.Edges[0], 5)
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range edge not detected")
	}
	g2 := NewGraph()
	g2.AddNode(0, NewSubtask(1))
	g2.Edges[0] = append(g2.Edges[0], 0)
	if err := g2.Validate(); err == nil {
		t.Fatal("self-loop not detected")
	}
}

func TestLongestPathFigure3(t *testing.T) {
	// End-to-end delay of Figure 3 is L1 + max(L2, L3) + L4.
	g := NewGraph()
	n1 := g.AddNode(0, NewSubtask(1))
	n2 := g.AddNode(1, NewSubtask(1))
	n3 := g.AddNode(2, NewSubtask(1))
	n4 := g.AddNode(3, NewSubtask(1))
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, n4)
	g.AddEdge(n3, n4)
	l := []float64{5, 2, 3, 7}
	got := g.LongestPath(func(n int) float64 { return l[n] })
	want := l[0] + math.Max(l[1], l[2]) + l[3]
	if got != want {
		t.Fatalf("LongestPath = %v, want %v", got, want)
	}
}

func TestLongestPathChainIsSum(t *testing.T) {
	g := ChainGraph(1, 1, 1, 1)
	w := []float64{0.5, 1.5, 2.5, 3.5}
	got := g.LongestPath(func(n int) float64 { return w[n] })
	if got != 8 {
		t.Fatalf("chain longest path = %v, want 8", got)
	}
}

func TestLongestPathDisconnected(t *testing.T) {
	// Two parallel nodes, no edges: delay is the max of the two.
	g := NewGraph()
	g.AddNode(0, NewSubtask(1))
	g.AddNode(1, NewSubtask(1))
	got := g.LongestPath(func(n int) float64 { return float64(n + 1) })
	if got != 2 {
		t.Fatalf("LongestPath = %v, want 2", got)
	}
}

func TestChainGraphStructure(t *testing.T) {
	g := ChainGraph(0.1, 0.2, 0.3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MaxResource() != 2 {
		t.Fatalf("MaxResource = %d, want 2", g.MaxResource())
	}
	in := g.Predecessors()
	if in[0] != 0 || in[1] != 1 || in[2] != 1 {
		t.Fatalf("predecessor counts %v", in)
	}
}

// TestLongestPathMonotoneQuick: increasing any node weight never decreases
// the longest path (a property the feasible-region evaluation relies on).
func TestLongestPathMonotoneQuick(t *testing.T) {
	g := NewGraph()
	n1 := g.AddNode(0, NewSubtask(1))
	n2 := g.AddNode(1, NewSubtask(1))
	n3 := g.AddNode(2, NewSubtask(1))
	n4 := g.AddNode(3, NewSubtask(1))
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, n4)
	g.AddEdge(n3, n4)
	f := func(a, b, c, d uint8, which uint8, bump uint8) bool {
		w := []float64{float64(a), float64(b), float64(c), float64(d)}
		base := g.LongestPath(func(n int) float64 { return w[n] })
		w[int(which)%4] += float64(bump)
		return g.LongestPath(func(n int) float64 { return w[n] }) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicies(t *testing.T) {
	g := dist.NewRNG(1)
	short := Chain(1, 100, 1, 0.5)
	long := Chain(2, 0, 10, 0.5)
	long.Importance = 5
	short.Importance = 1

	t.Run("deadline-monotonic", func(t *testing.T) {
		var p DeadlineMonotonic
		if !p.Fixed() {
			t.Error("DM must be fixed-priority")
		}
		if p.Assign(short, g) >= p.Assign(long, g) {
			t.Error("DM must prioritize the shorter deadline")
		}
	})
	t.Run("edf", func(t *testing.T) {
		var p EDF
		if p.Fixed() {
			t.Error("EDF must not be fixed-priority")
		}
		// short arrives at 100 with D=1 -> abs 101; long abs 10.
		if p.Assign(long, g) >= p.Assign(short, g) {
			t.Error("EDF must prioritize the earlier absolute deadline")
		}
	})
	t.Run("semantic", func(t *testing.T) {
		var p SemanticImportance
		if !p.Fixed() {
			t.Error("semantic importance is fixed-priority")
		}
		if p.Assign(long, g) >= p.Assign(short, g) {
			t.Error("higher importance must map to more urgent priority")
		}
	})
	t.Run("fifo", func(t *testing.T) {
		var p FIFO
		if p.Fixed() {
			t.Error("FIFO is arrival-dependent")
		}
		if p.Assign(long, g) >= p.Assign(short, g) {
			t.Error("FIFO must prioritize the earlier arrival")
		}
	})
	t.Run("random", func(t *testing.T) {
		var p Random
		if !p.Fixed() {
			t.Error("random assignment is fixed-priority")
		}
		seen := map[float64]bool{}
		for i := 0; i < 8; i++ {
			seen[p.Assign(short, g)] = true
		}
		if len(seen) < 2 {
			t.Error("random policy produced constant priorities")
		}
	})
}

func TestZeroDeadlineContributionIsInf(t *testing.T) {
	tk := &Task{ID: 1, Deadline: 0, Subtasks: []Subtask{NewSubtask(1)}}
	if !math.IsInf(tk.Contribution(0), 1) {
		t.Fatal("zero-deadline contribution should be +Inf so admission always rejects")
	}
}

func TestQualityLadder(t *testing.T) {
	tk := Chain(1, 0, 10, 1.0, 2.0).SetOptionalFraction(0.5)
	if !tk.HasOptional() {
		t.Fatal("SetOptionalFraction did not mark optional demand")
	}
	if got := tk.MandatoryDemand(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MandatoryDemand(0) = %v, want 0.5", got)
	}
	if got := tk.OptionalDemand(1); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("OptionalDemand(1) = %v, want 1.0", got)
	}
	// Level endpoints and monotonicity of the ladder.
	if got := tk.StageDemandAt(0, QualityLevels); got != tk.StageDemand(0) {
		t.Fatalf("full level demand %v != StageDemand %v", got, tk.StageDemand(0))
	}
	if got := tk.StageDemandAt(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("level-0 demand %v, want mandatory 0.5", got)
	}
	prev := -1.0
	for q := 0; q <= QualityLevels; q++ {
		d := tk.StageDemandAt(1, q)
		if d < prev {
			t.Fatalf("demand not monotone in level: level %d demand %v < %v", q, d, prev)
		}
		if d < tk.MandatoryDemand(1)-1e-12 || d > tk.StageDemand(1)+1e-12 {
			t.Fatalf("level %d demand %v outside [mandatory, full]", q, d)
		}
		prev = d
	}
	// Clamping.
	if tk.StageDemandAt(0, -3) != tk.MandatoryDemand(0) {
		t.Fatal("negative level should clamp to mandatory")
	}
	if tk.StageDemandAt(0, QualityLevels+5) != tk.StageDemand(0) {
		t.Fatal("over-max level should clamp to full demand")
	}
}

func TestUtilityModel(t *testing.T) {
	imp := Chain(1, 0, 10, 1).SetOptionalFraction(0.6)
	if got := imp.Utility(QualityLevels); got != 1 {
		t.Fatalf("full-quality utility = %v, want 1", got)
	}
	if got := imp.Utility(0); got != MandatoryUtility {
		t.Fatalf("mandatory-only utility = %v, want %v", got, MandatoryUtility)
	}
	half := imp.Utility(QualityLevels / 2)
	want := MandatoryUtility + (1-MandatoryUtility)*0.5
	if math.Abs(half-want) > 1e-12 {
		t.Fatalf("mid-ladder utility = %v, want %v", half, want)
	}
	// Utility is concave in executed demand: the mandatory prefix is worth
	// more per unit than the optional tail (the reason degradation wins
	// under overload).
	if MandatoryUtility <= imp.MandatoryDemand(0)/imp.StageDemand(0) {
		t.Fatal("utility model must be concave: mandatory value share must exceed its demand share")
	}
	rigid := Chain(2, 0, 10, 1)
	if rigid.Utility(0) != 1 {
		t.Fatal("tasks without optional demand always deliver full utility")
	}
}

func TestValidateRejectsBadOptional(t *testing.T) {
	over := Chain(1, 0, 1, 1)
	over.Subtasks[0].Optional = 1.5
	if err := over.Validate(); err == nil {
		t.Error("optional > demand accepted")
	}
	neg := Chain(2, 0, 1, 1)
	neg.Subtasks[0].Optional = -0.1
	if err := neg.Validate(); err == nil {
		t.Error("negative optional accepted")
	}
	seg := &Task{ID: 3, Deadline: 1, Subtasks: []Subtask{{
		Demand:   1,
		Optional: 0.5,
		Segments: []Segment{{Duration: 1, Lock: NoLock}},
	}}}
	if err := seg.Validate(); err == nil {
		t.Error("optional demand combined with segments accepted")
	}
}

func TestSetOptionalFractionSkipsSegmented(t *testing.T) {
	tk := &Task{ID: 1, Deadline: 1, Subtasks: []Subtask{
		NewSubtask(1),
		{Demand: 1, Segments: []Segment{{Duration: 1, Lock: 0}}},
	}}
	tk.SetOptionalFraction(0.5)
	if tk.Subtasks[0].Optional != 0.5 {
		t.Fatal("plain subtask should gain optional demand")
	}
	if tk.Subtasks[1].Optional != 0 {
		t.Fatal("segmented subtask must stay fully mandatory")
	}
	if err := tk.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOrderVictims(t *testing.T) {
	mk := func(id ID, imp, deadline float64, demands ...float64) *Task {
		tk := Chain(id, 0, deadline, demands...)
		tk.Importance = imp
		return tk
	}
	a := mk(1, 2, 10, 1) // weight 0.1
	b := mk(2, 1, 10, 4) // least important, weight 0.4
	c := mk(3, 1, 10, 1) // least important, weight 0.1
	d := mk(4, 5, 10, 1) // most important
	e := mk(5, 1, 10, 1) // ties with c except ID
	victims := []*Task{d, a, c, b, e}
	OrderVictims(victims)
	wantIDs := []ID{2, 5, 3, 1, 4}
	for i, v := range victims {
		if v.ID != wantIDs[i] {
			got := make([]ID, len(victims))
			for j, w := range victims {
				got[j] = w.ID
			}
			t.Fatalf("victim order = %v, want %v", got, wantIDs)
		}
	}
	// Deterministic: re-sorting a shuffled copy gives the same order.
	again := []*Task{e, b, d, a, c}
	OrderVictims(again)
	for i := range again {
		if again[i].ID != victims[i].ID {
			t.Fatal("OrderVictims is not deterministic")
		}
	}
}
