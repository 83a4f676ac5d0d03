package core

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// FuzzStageDelayFactor: f and its inverse stay consistent and ordered
// for arbitrary inputs (including garbage).
func FuzzStageDelayFactor(f *testing.F) {
	f.Add(0.0)
	f.Add(0.5)
	f.Add(0.99)
	f.Add(-3.0)
	f.Add(2.0)
	f.Add(math.Inf(1))
	f.Fuzz(func(t *testing.T, u float64) {
		y := StageDelayFactor(u)
		if math.IsNaN(y) {
			if !math.IsNaN(u) {
				t.Fatalf("f(%v) = NaN", u)
			}
			return
		}
		if y < 0 {
			t.Fatalf("f(%v) = %v negative", u, y)
		}
		back := InverseStageDelayFactor(y)
		if math.IsNaN(back) || back < 0 || back > 1 {
			t.Fatalf("f⁻¹(f(%v)) = %v out of [0,1]", u, back)
		}
		if u >= 0 && u < 1 && math.Abs(back-u) > 1e-6*(1+u) {
			t.Fatalf("roundtrip %v -> %v -> %v", u, y, back)
		}
	})
}

// FuzzAlphaBounds: α is always in [0, 1] for any finite positive inputs.
func FuzzAlphaBounds(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(0.5, 10.0, 0.5, 1.0)
	f.Fuzz(func(t *testing.T, p1, d1, p2, d2 float64) {
		for _, v := range []float64{p1, d1, p2, d2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if d1 <= 0 || d2 <= 0 {
			return
		}
		a := Alpha([]TaskParams{{Priority: p1, Deadline: d1}, {Priority: p2, Deadline: d2}})
		if a < 0 || a > 1 || math.IsNaN(a) {
			t.Fatalf("alpha = %v out of [0,1]", a)
		}
	})
}

// FuzzQualitySearch: for arbitrary background load, demand, and optional
// split, the quality-aware admission cascade preserves its invariants —
// the degraded demand vector is always between mandatory-only and full,
// the admitted level's increments are admissible at admission time, and
// the admitted level is monotone in the available headroom (more
// background load never yields a higher level).
func FuzzQualitySearch(f *testing.F) {
	f.Add(0.3, 2.0, 0.5, 10.0)
	f.Add(0.5, 1.0, 0.9, 4.0)
	f.Add(0.0, 3.0, 0.2, 8.0)
	f.Add(0.55, 2.5, 0.99, 6.0)
	f.Fuzz(func(t *testing.T, background, demand, frac, deadline float64) {
		if math.IsNaN(background) || math.IsNaN(demand) || math.IsNaN(frac) || math.IsNaN(deadline) {
			return
		}
		if background < 0 || background > 0.6 {
			return
		}
		if demand <= 0 || demand > 100 || deadline <= 0.1 || deadline > 1e6 {
			return
		}
		if frac < 0 || frac > 1 {
			return
		}
		admitAt := func(load float64) (int, bool, *Controller) {
			c := NewController(des.New(), NewRegion(1), nil)
			if load > 0 {
				if !c.TryAdmit(task.Chain(1, 0, 1e7, load*1e7)) {
					return 0, false, nil // background itself does not fit
				}
			}
			tk := task.Chain(2, 0, deadline, demand).SetOptionalFraction(frac)
			level, ok := c.TryAdmitQuality(tk, task.QualityLevels)
			if ok {
				// Degraded demand between mandatory and full on every stage.
				d := tk.StageDemandAt(0, level)
				if d < tk.StageDemandAt(0, 0)-1e-12 || d > tk.StageDemand(0)+1e-12 {
					t.Fatalf("level %d demand %v outside [%v, %v]",
						level, d, tk.StageDemandAt(0, 0), tk.StageDemand(0))
				}
				// Committed point never leaves the region by more than
				// float round-off.
				if v := c.Value(); v > c.Region().Bound()+1e-9 {
					t.Fatalf("admitted level %d leaves region: value %v > bound %v",
						level, v, c.Region().Bound())
				}
			}
			return level, ok, c
		}
		level, ok, _ := admitAt(background)
		// Monotone in headroom: strictly more background load can only
		// lower the admitted level (or reject).
		heavier := background + 0.05
		if heavier <= 0.6 {
			level2, ok2, _ := admitAt(heavier)
			if ok2 && !ok {
				t.Fatalf("admitted under load %v but rejected under lighter load %v", heavier, background)
			}
			if ok && ok2 && level2 > level {
				t.Fatalf("level rose from %d to %d as headroom shrank", level, level2)
			}
		}
	})
}
