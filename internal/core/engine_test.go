package core_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/online"
	"feasregion/internal/task"
)

// randomEngine returns an engine over a random region (α, β_j, reserved
// floors) with a random point charged, some stages beyond U = 1, and
// random stage scales s; v is a random demand vector to test against it.
func randomEngine(rng *rand.Rand) (e *core.Engine, v, s []float64) {
	n := 1 + rng.IntN(4)
	betas := make([]float64, n)
	reserved := make([]float64, n)
	for j := range betas {
		betas[j] = rng.Float64() * 0.1
		reserved[j] = rng.Float64() * 0.2
	}
	region := core.NewRegion(n).WithAlpha(0.5 + rng.Float64()/2).WithBetas(betas)
	eng := core.NewEngine(region, reserved)
	e = &eng
	point := make([]float64, n)
	for j := range point {
		point[j] = rng.Float64() * 0.5
		if rng.IntN(8) == 0 {
			point[j] = 1 + rng.Float64() // f = +Inf at this stage
		}
	}
	e.Commit(1, 1, task.QualityLevels, point) // charged at scale 1
	v, s = make([]float64, n), make([]float64, n)
	for j := range v {
		v[j] = rng.Float64() * 0.3
		s[j] = 0.5 + rng.Float64()*2
		e.SetStageScale(j, s[j])
	}
	return e, v, s
}

// TestEngineMatchesRegionReference checks the engine's allocation-free
// Value and Headroom bit for bit against the slice-based Region methods,
// which stay as the reference, and its region test against
// Region.Contains of the summed point.
func TestEngineMatchesRegionReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	for i := 0; i < 5000; i++ {
		e, v, s := randomEngine(rng)
		r := e.Region()
		u := append([]float64(nil), e.State().Utils()...)
		if got, want := e.Value(), r.Value(u); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: Value %v, Region.Value %v at %v", i, got, want, u)
		}
		for j := range u {
			if got, want := e.Headroom(j), r.Headroom(u, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d stage %d: Headroom %v, Region.Headroom %v at %v", i, j, got, want, u)
			}
		}
		summed := make([]float64, r.Stages)
		for j := range summed {
			summed[j] = u[j] + v[j]*s[j]
		}
		if got, want := e.Fits(v), r.Contains(summed); got != want {
			t.Fatalf("case %d: Fits %v, Contains %v at %v + %v·%v", i, got, want, u, v, s)
		}
		if got, want := core.Fits(u, v, s, r.Bound()), r.Contains(summed); got != want {
			t.Fatalf("case %d: core.Fits %v, Contains %v", i, got, want)
		}
	}
}

// TestEngineFitLevelMatchesScan checks the quality search against a
// linear scan of every level on random points: the highest level at or
// below maxLevel that fits, maxLevel alone for a rigid request, and the
// returned vector is that level's.
func TestEngineFitLevelMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 2))
	for i := 0; i < 2000; i++ {
		e, v, _ := randomEngine(rng)
		maxLevel := rng.IntN(task.QualityLevels + 1)
		hasOpt := rng.IntN(4) != 0
		buf := make([]float64, len(v))
		vec := func(lv int) []float64 { // demand grows with the level
			for j := range buf {
				buf[j] = v[j] * (0.1 + 0.9*float64(lv)/task.QualityLevels)
			}
			return buf
		}
		want, wantOK := -1, false
		for lv := maxLevel; lv >= 0; lv-- {
			if e.Fits(append([]float64(nil), vec(lv)...)) {
				want, wantOK = lv, true
				break
			}
			if !hasOpt {
				break
			}
		}
		got, gotV, ok := e.FitLevel(maxLevel, hasOpt, vec)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("case %d (max %d, opt %v): FitLevel %d %v, scan %d %v", i, maxLevel, hasOpt, got, ok, want, wantOK)
		}
		if ok {
			wantV := append([]float64(nil), vec(got)...)
			for j := range wantV {
				if gotV[j] != wantV[j] {
					t.Fatalf("case %d: vector %v is not level %d's %v", i, gotV, got, wantV)
				}
			}
		}
	}
}

// TestReservedFloorValidation: every constructor that takes reserved
// floors runs the engine's one check, which NaN fails too: a NaN floor
// would construct a controller that rejects every request.
func TestReservedFloorValidation(t *testing.T) {
	region := core.NewRegion(2)
	ctors := map[string]func([]float64){
		"core.NewEngine":     func(r []float64) { core.NewEngine(region, r) },
		"core.NewController": func(r []float64) { core.NewController(des.New(), region, r) },
		"online.New":         func(r []float64) { online.New(region, r, nil) },
	}
	for _, tc := range []struct {
		floor float64
		ok    bool
	}{
		{0, true}, {0.5, true}, {math.Nextafter(1, 0), true},
		{math.NaN(), false}, {-0.1, false}, {1, false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		for name, ctor := range ctors {
			t.Run(fmt.Sprintf("%s/%v", name, tc.floor), func(t *testing.T) {
				defer func() {
					if p := recover(); (p == nil) != tc.ok {
						t.Fatalf("reserved %v: panic %v, want ok=%v", tc.floor, p, tc.ok)
					}
				}()
				ctor([]float64{tc.floor, 0})
			})
		}
	}
}

// TestValueHeadroomAllocationFree pins the region reads of both
// controllers at 0 allocs: they evaluate the state's live point, not a
// copy.
func TestValueHeadroomAllocationFree(t *testing.T) {
	c := core.NewController(des.New(), core.NewRegion(3), nil)
	if !c.TryAdmit(task.Chain(1, 0, 10, 1, 2, 3)) {
		t.Fatal("admission rejected on an empty pipeline")
	}
	oc := online.New(core.NewRegion(3), nil, nil)
	if !oc.TryAdmit(online.Request{ID: 1, Deadline: time.Hour, Demands: []time.Duration{time.Minute, time.Minute, time.Minute}}) {
		t.Fatal("online admission rejected on an empty pipeline")
	}
	var sink float64
	for name, read := range map[string]func(){
		"core.Controller.Value":      func() { sink += c.Value() },
		"core.Controller.Headroom":   func() { sink += c.Headroom(1) },
		"online.Controller.Headroom": func() { sink += oc.Headroom(1) },
	} {
		if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
			t.Errorf("%s: %v allocs, want 0", name, allocs)
		}
	}
	if sink <= 0 {
		t.Fatalf("reads summed to %v with load charged", sink)
	}
}
