package core

import (
	"math"
	"testing"
	"testing/quick"

	"feasregion/internal/task"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStageDelayFactorValues(t *testing.T) {
	tests := []struct {
		u, want float64
	}{
		{0, 0},
		{0.5, 0.75},            // 0.5*0.75/0.5
		{UniprocessorBound, 1}, // f at the uniprocessor bound is exactly 1
		{0.4, 0.4 * 0.8 / 0.6}, // TSCE stage 1 reservation
		{0.25, 0.25 * 0.875 / 0.75},
		{0.1, 0.1 * 0.95 / 0.9},
	}
	for _, tt := range tests {
		if got := StageDelayFactor(tt.u); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("f(%v) = %v, want %v", tt.u, got, tt.want)
		}
	}
}

func TestStageDelayFactorBoundaries(t *testing.T) {
	if got := StageDelayFactor(-0.5); got != 0 {
		t.Errorf("f(-0.5) = %v, want 0", got)
	}
	if got := StageDelayFactor(1); !math.IsInf(got, 1) {
		t.Errorf("f(1) = %v, want +Inf", got)
	}
	if got := StageDelayFactor(1.5); !math.IsInf(got, 1) {
		t.Errorf("f(1.5) = %v, want +Inf", got)
	}
}

func TestUniprocessorBoundValue(t *testing.T) {
	// The paper's closed form: U ≤ 1/(1 + sqrt(1/2)).
	want := 1 / (1 + math.Sqrt(0.5))
	if !almostEqual(UniprocessorBound, want, 1e-12) {
		t.Fatalf("UniprocessorBound = %v, want %v", UniprocessorBound, want)
	}
	if !almostEqual(UniprocessorBound, 0.58578, 1e-4) {
		t.Fatalf("UniprocessorBound = %v, want ≈ 0.58578", UniprocessorBound)
	}
}

func TestSingleStageRegionReducesToUniprocessorBound(t *testing.T) {
	r := NewRegion(1)
	if got := r.BalancedStageBound(); !almostEqual(got, UniprocessorBound, 1e-12) {
		t.Fatalf("1-stage balanced bound = %v, want uniprocessor bound %v", got, UniprocessorBound)
	}
	if !r.Contains([]float64{UniprocessorBound - 1e-9}) {
		t.Fatal("point just inside the uniprocessor bound rejected")
	}
	if r.Contains([]float64{UniprocessorBound + 1e-6}) {
		t.Fatal("point just outside the uniprocessor bound accepted")
	}
}

func TestTSCEWorkedExample(t *testing.T) {
	// Paper §5: synthetic utilizations 0.4, 0.25, 0.1 give Eq. 13 value
	// 0.93 < 1, so the critical task set is certified schedulable.
	r := NewRegion(3)
	v := r.Value([]float64{0.4, 0.25, 0.1})
	if !almostEqual(v, 0.93, 0.005) {
		t.Fatalf("TSCE region value = %v, want ≈ 0.93", v)
	}
	if !r.Contains([]float64{0.4, 0.25, 0.1}) {
		t.Fatal("TSCE reservation must be inside the region")
	}
}

func TestInverseStageDelayFactorRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		u := float64(raw) / 65536 * 0.999 // u in [0, 0.999)
		y := StageDelayFactor(u)
		back := InverseStageDelayFactor(y)
		return almostEqual(back, u, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInverseStageDelayFactorEdges(t *testing.T) {
	if got := InverseStageDelayFactor(0); got != 0 {
		t.Errorf("f⁻¹(0) = %v, want 0", got)
	}
	if got := InverseStageDelayFactor(-1); got != 0 {
		t.Errorf("f⁻¹(-1) = %v, want 0", got)
	}
	if got := InverseStageDelayFactor(math.Inf(1)); got != 1 {
		t.Errorf("f⁻¹(+Inf) = %v, want 1", got)
	}
	if got := InverseStageDelayFactor(1); !almostEqual(got, UniprocessorBound, 1e-12) {
		t.Errorf("f⁻¹(1) = %v, want the uniprocessor bound", got)
	}
}

func TestStageDelayFactorMonotoneQuick(t *testing.T) {
	f := func(a, b uint16) bool {
		ua := float64(a) / 65536
		ub := float64(b) / 65536
		if ua > ub {
			ua, ub = ub, ua
		}
		return StageDelayFactor(ua) <= StageDelayFactor(ub)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionBoundWithAlphaAndBetas(t *testing.T) {
	r := NewRegion(2).WithAlpha(0.8).WithBetas([]float64{0.1, 0.05})
	if got := r.Bound(); !almostEqual(got, 0.8*0.85, 1e-12) {
		t.Fatalf("Bound = %v, want %v", got, 0.8*0.85)
	}
}

func TestRegionPanicsOnBadParameters(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"zero stages", func() { NewRegion(0) }},
		{"alpha zero", func() { NewRegion(1).WithAlpha(0) }},
		{"alpha above one", func() { NewRegion(1).WithAlpha(1.5) }},
		{"betas wrong length", func() { NewRegion(2).WithBetas([]float64{0.1}) }},
		{"negative beta", func() { NewRegion(1).WithBetas([]float64{-0.1}) }},
		{"value wrong length", func() { NewRegion(2).Value([]float64{0.1}) }},
		{"surface on 3 stages", func() { NewRegion(3).SurfacePoint(0.1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestSurfacePointTracesBoundary(t *testing.T) {
	r := NewRegion(2)
	for _, u1 := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		u2 := r.SurfacePoint(u1)
		v := r.Value([]float64{u1, u2})
		if !almostEqual(v, r.Bound(), 1e-9) {
			t.Errorf("surface point (%v, %v) has value %v, want %v", u1, u2, v, r.Bound())
		}
	}
	// Beyond the single-stage bound nothing is admissible on stage 2.
	if got := r.SurfacePoint(0.99); got != 0 {
		t.Errorf("SurfacePoint(0.99) = %v, want 0", got)
	}
}

func TestSurfaceDominance(t *testing.T) {
	// Any point componentwise below a surface point is inside the region.
	r := NewRegion(2)
	u2 := r.SurfacePoint(0.3)
	if !r.Contains([]float64{0.25, u2 * 0.9}) {
		t.Fatal("dominated point must be inside the region")
	}
	if r.Contains([]float64{0.31, u2 + 0.01}) {
		t.Fatal("dominating point must be outside the region")
	}
}

func TestBalancedStageBoundShrinksWithStages(t *testing.T) {
	prev := 1.0
	for n := 1; n <= 8; n++ {
		b := NewRegion(n).BalancedStageBound()
		if b <= 0 || b >= prev {
			t.Fatalf("balanced bound not strictly decreasing: N=%d bound=%v prev=%v", n, b, prev)
		}
		prev = b
	}
	// The O(1/N) behavior (paper §3.1): N·f(U_N) = 1 exactly.
	for n := 1; n <= 8; n++ {
		b := NewRegion(n).BalancedStageBound()
		if v := float64(n) * StageDelayFactor(b); !almostEqual(v, 1, 1e-9) {
			t.Fatalf("N=%d: N·f(bound) = %v, want 1", n, v)
		}
	}
}

func TestBalancedStageBoundZeroWhenBlockingSaturates(t *testing.T) {
	r := NewRegion(1).WithBetas([]float64{1})
	if got := r.BalancedStageBound(); got != 0 {
		t.Fatalf("bound with saturating blocking = %v, want 0", got)
	}
}

func TestGraphValueFigure3(t *testing.T) {
	// Figure 3 / Eq. 16: region is f(U1) + max(f(U2), f(U3)) + f(U4) ≤ α.
	g := task.NewGraph()
	n1 := g.AddNode(0, task.NewSubtask(1))
	n2 := g.AddNode(1, task.NewSubtask(1))
	n3 := g.AddNode(2, task.NewSubtask(1))
	n4 := g.AddNode(3, task.NewSubtask(1))
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, n4)
	g.AddEdge(n3, n4)

	utils := []float64{0.2, 0.3, 0.1, 0.15}
	want := StageDelayFactor(0.2) + math.Max(StageDelayFactor(0.3), StageDelayFactor(0.1)) + StageDelayFactor(0.15)
	if got := GraphValue(g, utils, nil); !almostEqual(got, want, 1e-12) {
		t.Fatalf("GraphValue = %v, want %v", got, want)
	}
	if !GraphFeasible(g, utils, nil, 1) {
		t.Fatal("Figure 3 point should be feasible")
	}
}

func TestGraphValueSharedResource(t *testing.T) {
	// Paper §3.3: if subtasks 1 and 4 run on the same processor, the same
	// U appears twice along the path.
	g := task.NewGraph()
	n1 := g.AddNode(0, task.NewSubtask(1))
	n2 := g.AddNode(1, task.NewSubtask(1))
	n4 := g.AddNode(0, task.NewSubtask(1)) // same resource as n1
	g.AddEdge(n1, n2)
	g.AddEdge(n2, n4)

	utils := []float64{0.3, 0.2}
	want := 2*StageDelayFactor(0.3) + StageDelayFactor(0.2)
	if got := GraphValue(g, utils, nil); !almostEqual(got, want, 1e-12) {
		t.Fatalf("GraphValue = %v, want %v", got, want)
	}
}

func TestGraphValueChainMatchesRegionValue(t *testing.T) {
	g := chainGraph(1, 1, 1)
	utils := []float64{0.2, 0.25, 0.15}
	r := NewRegion(3)
	if got, want := GraphValue(g, utils, nil), r.Value(utils); !almostEqual(got, want, 1e-12) {
		t.Fatalf("chain GraphValue = %v, Region.Value = %v; must agree", got, want)
	}
}

func TestGraphValueWithBetas(t *testing.T) {
	g := chainGraph(1, 1)
	utils := []float64{0.2, 0.2}
	betas := []float64{0.05, 0.1}
	want := StageDelayFactor(0.2)*2 + 0.15
	if got := GraphValue(g, utils, betas); !almostEqual(got, want, 1e-12) {
		t.Fatalf("GraphValue with betas = %v, want %v", got, want)
	}
}

// TestRegionValueMonotoneQuick: increasing any utilization never shrinks
// the region value — admission tests can therefore be evaluated
// incrementally.
func TestRegionValueMonotoneQuick(t *testing.T) {
	r := NewRegion(3)
	f := func(a, b, c uint16, which uint8, bump uint16) bool {
		us := []float64{
			float64(a) / 65536 * 0.9,
			float64(b) / 65536 * 0.9,
			float64(c) / 65536 * 0.9,
		}
		base := r.Value(us)
		us[int(which)%3] += float64(bump) / 65536 * 0.0999
		return r.Value(us) >= base-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
