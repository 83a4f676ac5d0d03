package core

import (
	"math"
	"testing"
	"testing/quick"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

func TestHeadroomEmptySingleStage(t *testing.T) {
	r := NewRegion(1)
	if got := r.Headroom([]float64{0}, 0); !almostEqual(got, UniprocessorBound, 1e-12) {
		t.Fatalf("headroom of empty stage = %v, want uniprocessor bound", got)
	}
}

func TestHeadroomAtBoundaryIsZero(t *testing.T) {
	r := NewRegion(1)
	if got := r.Headroom([]float64{UniprocessorBound}, 0); got != 0 {
		t.Fatalf("headroom at the bound = %v, want 0", got)
	}
	if got := r.Headroom([]float64{0.9}, 0); got != 0 {
		t.Fatalf("headroom past the bound = %v, want 0", got)
	}
}

func TestHeadroomTwoStage(t *testing.T) {
	r := NewRegion(2)
	utils := []float64{0.3, 0.1}
	h := r.Headroom(utils, 0)
	// Point (0.3+h, 0.1) must sit exactly on the surface.
	if v := r.Value([]float64{0.3 + h, 0.1}); !almostEqual(v, 1, 1e-9) {
		t.Fatalf("headroom point value %v, want 1", v)
	}
	// And it must equal SurfacePoint's inverse relation.
	if want := r.SurfacePoint(0.1) - 0.3; !almostEqual(h, want, 1e-9) {
		t.Fatalf("headroom %v, want %v", h, want)
	}
}

func TestHeadroomPanicsOnBadArgs(t *testing.T) {
	r := NewRegion(2)
	for _, fn := range []func(){
		func() { r.Headroom([]float64{0.1}, 0) },
		func() { r.Headroom([]float64{0.1, 0.1}, 2) },
		func() { r.Headroom([]float64{0.1, 0.1}, -1) },
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

// TestHeadroomAdmissionConsistencyQuick: a task whose per-stage
// contribution is below the headroom of every stage is always admitted;
// one exceeding the headroom on some stage (with others zero) is not.
func TestHeadroomAdmissionConsistencyQuick(t *testing.T) {
	f := func(a, b uint16, extra uint16) bool {
		r := NewRegion(2)
		utils := []float64{float64(a) / 65536 * 0.4, float64(b) / 65536 * 0.4}
		if !r.Contains(utils) {
			return true // base point already outside: nothing to check
		}
		h0 := r.Headroom(utils, 0)
		// Inside: half the headroom on stage 0 only.
		inside := []float64{utils[0] + h0/2, utils[1]}
		if !r.Contains(inside) {
			return false
		}
		// Outside: headroom plus a bump.
		bump := float64(extra)/65536*0.1 + 1e-6
		outside := []float64{utils[0] + h0 + bump, utils[1]}
		return !r.Contains(outside)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestControllerHeadroom(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	c.TryAdmit(task.Chain(1, 0, 10, 3, 1))
	h := c.Headroom(0)
	if h <= 0 {
		t.Fatalf("headroom %v, want positive", h)
	}
	// A task consuming slightly less than the headroom on stage 0 fits.
	fit := task.Chain(2, 0, 10, (h-1e-9)*10, 0)
	if !c.WouldAdmit(fit) {
		t.Fatal("task within headroom rejected")
	}
	over := task.Chain(3, 0, 10, (h+1e-6)*10, 0)
	if c.WouldAdmit(over) {
		t.Fatal("task beyond headroom admitted")
	}
}

func TestGraphControllerSetReserved(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 2, 1, nil)
	c.SetReserved([]float64{0.3, 0.1})
	us := c.Utilizations()
	if us[0] != 0.3 || us[1] != 0.1 {
		t.Fatalf("reserved utilizations %v", us)
	}
	// Admission now accounts for the floors.
	g := chainGraph(1, 1)
	admitted := 0
	for i := 0; i < 10; i++ {
		if c.TryAdmit(&task.Task{ID: task.ID(i), Deadline: 10, Graph: g}) {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted over the reservation")
	}
	utils := c.Utilizations()
	if utils[0] <= 0.3 {
		t.Fatalf("utilization %v should exceed the floor after admissions", utils)
	}
}

func TestGraphControllerSetReservedAfterAdmissionPanics(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 1, 1, nil)
	g := chainGraph(1)
	c.TryAdmit(&task.Task{ID: 1, Deadline: 10, Graph: g})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.SetReserved([]float64{0.1})
}

func TestGraphControllerSetReservedWrongLengthPanics(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 2, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.SetReserved([]float64{0.1})
}

func TestHeadroomMathConsistency(t *testing.T) {
	// Headroom with blocking and alpha: point + headroom lands on the
	// shrunk bound.
	r := NewRegion(3).WithAlpha(0.8).WithBetas([]float64{0.05, 0, 0.05})
	utils := []float64{0.1, 0.2, 0.05}
	h := r.Headroom(utils, 1)
	bumped := []float64{0.1, 0.2 + h, 0.05}
	if v := r.Value(bumped); math.Abs(v-r.Bound()) > 1e-9 {
		t.Fatalf("value at headroom point %v, want bound %v", v, r.Bound())
	}
}
