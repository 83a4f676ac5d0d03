package curve

import (
	"math"
	"strings"
	"testing"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/task"
)

func TestRecorderStepFunction(t *testing.T) {
	r := NewRecorder(1, nil)
	r.Observe(0, 1, 0.5)
	r.Observe(0, 2, 0.75)
	r.Observe(0, 4, 0.25)
	pts := r.Curve(0)
	want := []Point{{0, 0}, {1, 0.5}, {2, 0.75}, {4, 0.25}}
	if len(pts) != len(want) {
		t.Fatalf("points %+v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("points %+v, want %+v", pts, want)
		}
	}
}

func TestRecorderCollapsesSameInstant(t *testing.T) {
	r := NewRecorder(1, nil)
	r.Observe(0, 1, 0.5)
	r.Observe(0, 1, 0.8) // same instant: only the final value remains
	pts := r.Curve(0)
	if len(pts) != 2 || pts[1] != (Point{1, 0.8}) {
		t.Fatalf("points %+v", pts)
	}
	// Collapse back to the previous value removes the step entirely.
	r.Observe(0, 1, 0)
	if pts = r.Curve(0); len(pts) != 1 {
		t.Fatalf("flattened points %+v", pts)
	}
}

func TestRecorderIgnoresNoOpSteps(t *testing.T) {
	r := NewRecorder(1, nil)
	r.Observe(0, 1, 0.5)
	r.Observe(0, 2, 0.5)
	if pts := r.Curve(0); len(pts) != 2 {
		t.Fatalf("no-op step recorded: %+v", pts)
	}
}

func TestArea(t *testing.T) {
	r := NewRecorder(1, nil)
	r.Observe(0, 1, 1.0)
	r.Observe(0, 3, 0.5)
	r.Observe(0, 5, 0)
	// Curve: 0 on [0,1), 1 on [1,3), 0.5 on [3,5), 0 after.
	if got := r.Area(0, 0, 5); math.Abs(got-3) > 1e-12 {
		t.Fatalf("area over [0,5] = %v, want 3", got)
	}
	if got := r.Area(0, 2, 4); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("area over [2,4] = %v, want 1.5", got)
	}
	if got := r.Area(0, 6, 10); got != 0 {
		t.Fatalf("area over tail = %v, want 0", got)
	}
}

func TestInitialFloor(t *testing.T) {
	r := NewRecorder(2, []float64{0.4, 0.1})
	if got := r.Area(0, 0, 2); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("area with floor %v, want 0.8", got)
	}
}

func TestRender(t *testing.T) {
	r := NewRecorder(1, nil)
	r.Observe(0, 0, 1.0)
	r.Observe(0, 5, 0)
	var b strings.Builder
	if err := r.Render(&b, 0, 0, 10, 20, 4); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("render:\n%s", out)
	}
	// Top row filled in the first half, empty in the second.
	if !strings.Contains(lines[1], "##########") || strings.Contains(lines[1], "###########") {
		t.Fatalf("top row wrong:\n%s", out)
	}
}

// TestAreaPropertyEndToEnd validates the paper's area property against a
// live controller: with idle resets disabled, the area under a stage's
// synthetic-utilization curve over a window covering all contributions
// equals the summed computation times of the admitted tasks (each task
// contributes a C/D × D rectangle).
func TestAreaPropertyEndToEnd(t *testing.T) {
	sim := des.New()
	ctrl := core.NewController(sim, core.NewRegion(1), nil)
	rec := NewRecorder(1, nil)
	ctrl.OnUtilizationChange(rec.Observe)

	totalC := 0.0
	// Admit a scattered set of tasks (no idle resets are wired, so every
	// contribution lives exactly [arrival, deadline]).
	arrivals := []struct{ at, d, c float64 }{
		{0, 4, 1}, {1, 8, 0.5}, {3, 2, 0.6}, {6, 5, 1.2}, {9, 3, 0.3},
	}
	for i, a := range arrivals {
		a := a
		id := task.ID(i)
		sim.At(a.at, func() {
			if ctrl.TryAdmit(task.Chain(id, a.at, a.d, a.c)) {
				totalC += a.c
			}
		})
	}
	sim.Run()
	if totalC == 0 {
		t.Fatal("nothing admitted")
	}
	area := rec.Area(0, 0, 100)
	if math.Abs(area-totalC) > 1e-9 {
		t.Fatalf("area property violated: area %v, total computation %v", area, totalC)
	}
}

func TestRecorderValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRecorder(0, nil) },
		func() { NewRecorder(2, []float64{0.1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRenderAutoRangeAndSinglePoint(t *testing.T) {
	r := NewRecorder(1, nil)
	var b strings.Builder
	// Single-point curve: auto range must not divide by zero.
	if err := r.Render(&b, 0, 0, 0, 10, 4); err != nil {
		t.Fatal(err)
	}
	r.Observe(0, 2, 0.5)
	r.Observe(0, 6, 0)
	b.Reset()
	if err := r.Render(&b, 0, 0, 0, 20, 4); err != nil {
		t.Fatal(err)
	}
	// The curve always starts at t=0 (the initial level), so the auto
	// range begins there.
	if !strings.Contains(b.String(), "[0, 6]") {
		t.Fatalf("auto range wrong:\n%s", b.String())
	}
}
