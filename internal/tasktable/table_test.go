package tasktable

import (
	"math"
	"math/big"
	"testing"
)

// xorshift returns a deterministic generator of values in [0, n).
func xorshift(seed uint64) func(n uint64) uint64 {
	return func(n uint64) uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed % n
	}
}

// insertRow inserts id charging stage j with v(j) and returns its slot.
func insertRow(s *State, id uint64, stamp int64, v func(j int) float64) int {
	d := make([]float64, len(s.stage))
	for j := range d {
		d[j] = v(j)
	}
	return s.Insert(id, stamp, 0, d)
}

// departedAt reports whether the row is departed and pending at stage j.
func (s *State) departedAt(slot, j int) bool { return s.tags[s.at(slot, j)] == s.stage[j].epoch+1 }

// checkModel requires every key of the model to be findable with its
// stamp, and the table to hold exactly the model's rows.
func checkModel(t *testing.T, s *State, model map[uint64]int64, step int) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("step %d: table holds %d rows, model %d", step, s.Len(), len(model))
	}
	for id, stamp := range model {
		slot, ok := s.Lookup(id)
		if !ok {
			t.Fatalf("step %d: id %d lost", step, id)
		}
		if got := s.Stamp(slot); got != stamp {
			t.Fatalf("step %d: id %d has stamp %d, want %d", step, id, got, stamp)
		}
		if got := s.Contrib(slot, 1); got != float64(stamp) {
			t.Fatalf("step %d: id %d carries contribution %v, want %v", step, id, got, float64(stamp))
		}
	}
	for j := range s.stage {
		if s.Charging(j) != len(model) {
			t.Fatalf("step %d: stage %d charged by %d rows, want %d", step, j, s.Charging(j), len(model))
		}
	}
}

// TestBackwardShiftDeleteKeepsKeysFindable drives random inserts and
// deletes over a small key space, so probe clusters form and wrap, and
// checks every remaining key stays findable with its own row after each
// backward-shift deletion.
func TestBackwardShiftDeleteKeepsKeysFindable(t *testing.T) {
	s := NewState(2, nil)
	next := xorshift(0x9E3779B97F4A7C15)
	model := map[uint64]int64{}
	for step := 0; step < 20000; step++ {
		id := next(512) * 1024 // multiples collide in the low hash bits
		if next(4) == 0 {
			id = MaxID - next(3) // the spill row and its neighbours
		}
		if _, ok := model[id]; ok {
			slot, _ := s.Lookup(id)
			s.Drop(slot)
			delete(model, id)
			if _, ok := s.Lookup(id); ok {
				t.Fatalf("step %d: deleted id %d still found", step, id)
			}
		} else {
			stamp := int64(step)
			insertRow(&s, id, stamp, func(int) float64 { return float64(stamp) })
			model[id] = stamp
		}
		if step%97 == 0 {
			checkModel(t, &s, model, step)
		}
	}
	checkModel(t, &s, model, -1)
}

// TestGrowPreservesRows fills a table through several doublings and
// checks each row keeps its stamp, level, contributions and tags, and
// each stage's sum its exact value.
func TestGrowPreservesRows(t *testing.T) {
	const n = 1000
	s := NewState(3, nil)
	contrib := func(id uint64, j int) float64 { return float64(id) + float64(j)/4 }
	for id := uint64(0); id < n; id++ {
		key := id
		if id == n-1 {
			key = MaxID
		}
		slot := s.Insert(key, int64(id)+7, uint8(id%8), []float64{contrib(id, 0), contrib(id, 1), contrib(id, 2)})
		switch id % 3 {
		case 1:
			s.MarkDeparted(slot, 2)
		case 2:
			s.MarkDeparted(slot, 0)
		}
	}
	if len(s.keys) <= minSize {
		t.Fatalf("table never grew: %d slots", len(s.keys))
	}
	// Stage 0's idle reset clears exactly the id%3 == 2 rows.
	if cleared := s.ResetIdle(0); cleared != n/3 {
		t.Fatalf("idle reset cleared %d rows, want %d", cleared, n/3)
	}
	var want [3]float64 // quarters below 2^50: exact
	for id := uint64(0); id < n; id++ {
		key := id
		if id == n-1 {
			key = MaxID
		}
		slot, ok := s.Lookup(key)
		if !ok {
			t.Fatalf("id %d lost across growth", id)
		}
		if s.Stamp(slot) != int64(id)+7 || s.Level(slot) != uint8(id%8) {
			t.Fatalf("id %d: stamp %d level %d", id, s.Stamp(slot), s.Level(slot))
		}
		for j := 0; j < 3; j++ {
			cleared := id%3 == 2 && j == 0
			w := contrib(id, j)
			if cleared {
				w = 0
			}
			want[j] += w
			if got := s.Contrib(slot, j); got != w {
				t.Fatalf("id %d stage %d: contribution %v, want %v", id, j, got, w)
			}
			if s.Present(slot, j) == cleared {
				t.Fatalf("id %d stage %d: present = %v", id, j, !cleared)
			}
			if dep := s.departedAt(slot, j); dep != (id%3 == 1 && j == 2) {
				t.Fatalf("id %d stage %d: departed = %v", id, j, dep)
			}
		}
	}
	for j, w := range want {
		if got := s.Util(j); got != w {
			t.Fatalf("stage %d: utilization %v, want %v", j, got, w)
		}
	}
	if got, want := s.Charging(0), n-n/3; got != want {
		t.Fatalf("stage 0 charged by %d rows, want %d", got, want)
	}
}

// TestClearedRowRecycledInPlace checks a row cleared at every stage
// lingers without charging anything, and that re-inserting its ID
// recycles the same slot under the new stamp, charging every stage
// again. A row that still charges a stage cannot be re-inserted.
func TestClearedRowRecycledInPlace(t *testing.T) {
	for _, id := range []uint64{5, MaxID} {
		s := NewState(2, nil)
		slot := insertRow(&s, id, 1, func(int) float64 { return 0.1 })
		s.MarkDeparted(slot, 0)
		s.ResetIdle(0)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("id %#x: insert over a row still charging stage 1 did not panic", id)
				}
			}()
			s.Insert(id, 2, 0, []float64{0, 0})
		}()
		s.MarkDeparted(slot, 1)
		s.ResetIdle(1)
		if s.Util(0) != 0 || s.Util(1) != 0 || s.Live(slot) || s.Len() != 1 {
			t.Fatalf("id %#x: after both resets util %v/%v live=%v len=%d",
				id, s.Util(0), s.Util(1), s.Live(slot), s.Len())
		}
		if got := s.Insert(id, 2, 3, []float64{0.25, 0.5}); got != slot {
			t.Fatalf("id %#x: recycled into slot %d, want %d", id, got, slot)
		}
		if s.Stamp(slot) != 2 || s.Level(slot) != 3 || !s.Live(slot) || s.Len() != 1 {
			t.Fatalf("id %#x: recycled row stamp %d level %d live %v len %d",
				id, s.Stamp(slot), s.Level(slot), s.Live(slot), s.Len())
		}
		for j, want := range []float64{0.25, 0.5} {
			if !s.Present(slot, j) || s.departedAt(slot, j) || s.Charging(j) != 1 || s.Util(j) != want {
				t.Fatalf("id %#x stage %d: recycled row not charging afresh", id, j)
			}
		}
	}
}

// TestResetIdleEmptiesStage departs every row still charging stage 0
// and resets it. On the way, one departed row is dropped (its pending
// charge leaves with it), one is dropped, re-inserted and departed
// again, one is recycled in place, one is marked twice, and the spill
// row departs. The reset must clear exactly the four pending rows
// without writing any row, leave the sum at exactly 0, and keep the
// rows charging stage 1.
func TestResetIdleEmptiesStage(t *testing.T) {
	s := NewState(2, nil)
	add := func(id uint64, v float64) int { return insertRow(&s, id, int64(id), func(int) float64 { return v }) }
	drop := func(id uint64) {
		slot, _ := s.Lookup(id)
		s.Drop(slot)
	}
	// Recycle row 3 in place: clear both stages, then insert it again.
	slot3 := add(3, 0.3)
	s.MarkDeparted(slot3, 0)
	s.MarkDeparted(slot3, 1)
	s.ResetIdle(0)
	s.ResetIdle(1)
	if got := add(3, 0.3); got != slot3 {
		t.Fatalf("row 3 recycled into slot %d, want %d", got, slot3)
	}

	s.MarkDeparted(add(1, 0.1), 0)
	drop(1)
	s.MarkDeparted(add(2, 0.2), 0)
	drop(2)
	s.MarkDeparted(add(2, 0.7), 0)
	slot4 := add(4, 1.0/3)
	s.MarkDeparted(slot4, 0)
	s.MarkDeparted(slot4, 0) // no-op
	s.MarkDeparted(add(MaxID, 1e-9), 0)
	s.MarkDeparted(slot3, 0)

	if p, c := s.stage[0].npending, s.Charging(0); p != 4 || c != 4 {
		t.Fatalf("before reset: %d departed of %d charging, want 4 of 4", p, c)
	}
	tags := append([]uint64(nil), s.tags...)
	contribs := append([]float64(nil), s.contribs...)
	if n := s.ResetIdle(0); n != 4 {
		t.Fatalf("reset cleared %d rows, want 4", n)
	}
	for i := range tags {
		if s.tags[i] != tags[i] || math.Float64bits(s.contribs[i]) != math.Float64bits(contribs[i]) {
			t.Fatalf("reset wrote row column %d", i)
		}
	}
	if s.Util(0) != 0 || s.stage[0].sum != (qsum{}) || s.stage[0].pending != (qsum{}) {
		t.Fatalf("stage 0 after emptying: util %v, %+v", s.Util(0), s.stage[0])
	}
	if s.Charging(0) != 0 || s.Charging(1) != 4 || s.stage[0].npending != 0 {
		t.Fatalf("after reset: charging %d/%d, pending %d", s.Charging(0), s.Charging(1), s.stage[0].npending)
	}
	for _, id := range []uint64{2, 3, 4, MaxID} {
		slot, ok := s.Lookup(id)
		if !ok || s.Present(slot, 0) || s.Contrib(slot, 0) != 0 || s.departedAt(slot, 0) ||
			!s.Present(slot, 1) || !s.Live(slot) {
			t.Fatalf("row %#x: not cleared at stage 0 alone", id)
		}
	}
	if _, ok := s.Lookup(1); ok {
		t.Fatal("deleted row 1 came back")
	}
}

// ratSum returns the exact value of a stage sum.
func ratSum(a qsum) *big.Rat {
	r := new(big.Rat).SetFloat64(a.hi)
	return r.Add(r, new(big.Rat).SetFloat64(a.lo))
}

// TestUtilBoundsExactSum is the soundness property of the quantized
// sums. Over random insert, depart, reset, recharge, clear, drop and
// floor-change streams it tracks each stage's exact charge (every
// contribution charging it, summed as a big.Rat) and requires
//
//	exact ≤ Util(j) − floor ≤ exact + live·2^-40 (plus one ulp)
//
// with live the rows charging the stage, and the same bounds, with no
// ulp, on the stage sum itself. Floors are multiples of 2^-10 and
// sums stay far below maxContrib, so Util's one rounding is exact here
// and the lower bound holds with no slack.
func TestUtilBoundsExactSum(t *testing.T) {
	const stages = 3
	next := xorshift(0x2545F4914F6CDD1D)
	s := NewState(stages, nil)
	type row struct {
		v       [stages]float64
		present [stages]bool
		dep     [stages]bool
	}
	rows := map[uint64]*row{}
	var floors [stages]float64
	var exact [stages]big.Rat
	var live [stages]int
	charge := func(r *row, k int, sign int) {
		v := new(big.Rat).SetFloat64(r.v[k])
		if sign < 0 {
			v.Neg(v)
		}
		exact[k].Add(&exact[k], v)
		live[k] += sign
		r.present[k] = sign > 0
		r.dep[k] = false
	}
	value := func() float64 {
		if next(8) == 0 {
			return float64(next(1<<20)) / 3 / (1 << 20)
		}
		return math.Float64frombits(0x3F00000000000000 | next(1<<52)) // [2^-15, 2^-14)
	}
	var resets, clears, recharges int
	quantum := new(big.Rat).SetFrac64(1, 1<<40)
	for step := 0; step < 40000; step++ {
		id := next(64)
		j := int(next(stages))
		r := rows[id]
		switch op := next(16); {
		case op < 5: // insert
			if r != nil {
				if slot, _ := s.Lookup(id); s.Live(slot) {
					continue
				}
			}
			r = &row{}
			d := make([]float64, stages)
			for k := range d {
				d[k] = value()
				r.v[k] = d[k]
				charge(r, k, 1)
			}
			rows[id] = r
			s.Insert(id, int64(step), 0, d)
		case op < 9: // depart
			if r != nil && r.present[j] {
				slot, _ := s.Lookup(id)
				s.MarkDeparted(slot, j)
				r.dep[j] = true
			}
		case op < 11: // idle reset
			s.ResetIdle(j)
			resets++
			for _, r := range rows {
				if r.dep[j] {
					charge(r, j, -1)
				}
			}
		case op < 12:
			if r != nil && r.present[j] {
				slot, _ := s.Lookup(id)
				v, dep := value(), r.dep[j]
				s.Recharge(slot, j, v)
				charge(r, j, -1)
				r.v[j] = v
				charge(r, j, 1)
				r.dep[j] = dep
				recharges++
			}
		case op < 13:
			if r != nil && r.present[j] {
				slot, _ := s.Lookup(id)
				s.ClearStage(slot, j)
				charge(r, j, -1)
				clears++
			}
		case op < 15:
			if r != nil {
				slot, _ := s.Lookup(id)
				s.Drop(slot)
				for k := range r.present {
					if r.present[k] {
						charge(r, k, -1)
					}
				}
				delete(rows, id)
			}
		default:
			floors[j] = float64(next(512)) / 1024
			s.SetFloor(j, floors[j])
		}
		for k := 0; k < stages; k++ {
			hi := new(big.Rat).Mul(quantum, big.NewRat(int64(live[k]), 1))
			hi.Add(hi, &exact[k])
			if sum := ratSum(s.stage[k].sum); sum.Cmp(&exact[k]) < 0 || sum.Cmp(hi) > 0 {
				t.Fatalf("step %d stage %d: quantized sum %v outside [%v, %v]",
					step, k, sum.FloatString(20), exact[k].FloatString(20), hi.FloatString(20))
			}
			u := s.Util(k)
			ulp := math.Nextafter(u, math.Inf(1)) - u
			hi.Add(hi, new(big.Rat).SetFloat64(ulp))
			got := new(big.Rat).SetFloat64(u - floors[k]) // exact: see above
			if got.Cmp(&exact[k]) < 0 || got.Cmp(hi) > 0 {
				t.Fatalf("step %d stage %d: utilization %v over floor %v outside [%v, %v]",
					step, k, u, floors[k], exact[k].FloatString(20), hi.FloatString(20))
			}
			if s.Charging(k) != live[k] {
				t.Fatalf("step %d stage %d: charging %d, model %d", step, k, s.Charging(k), live[k])
			}
		}
	}
	if resets < 1000 || clears < 500 || recharges < 500 {
		t.Fatalf("stream too tame: %d resets, %d clears, %d recharges", resets, clears, recharges)
	}
}

// TestContribCap charges contributions past maxContrib (+Inf among
// them): each is charged as maxContrib, saturating the stage, and
// Contrib returns what the caller charged. Each carries the sum's low
// part into its high word, and a row of 1/3 leaves the low part with
// more bits than a float64 holds: the utilization is the exact total
// rounded once, to nearest. Dropping every row returns the stage to
// exactly its floor. Negative and NaN charges panic.
func TestContribCap(t *testing.T) {
	s := NewState(1, []float64{0.25})
	const n = 40
	for id := uint64(0); id < n; id++ {
		v := math.Inf(1)
		if id%2 == 1 {
			v = 1e300
		}
		slot := s.Insert(id, 0, 0, []float64{v})
		if s.Contrib(slot, 0) != v {
			t.Fatalf("row %d: contribution %v, want %v", id, s.Contrib(slot, 0), v)
		}
	}
	s.Insert(n, 0, 0, []float64{1.0 / 3})
	if s.stage[0].sum.hi != n*maxContrib {
		t.Fatalf("sum %+v, want %d carries", s.stage[0].sum, n)
	}
	exact := new(big.Int).Lsh(big.NewInt(n*maxContrib), 40) // the capped rows
	exact.Add(exact, big.NewInt(1<<40/3+1))                 // ⌈2^40/3⌉
	sum, _ := new(big.Float).SetInt(exact).Float64()
	if got, want := s.Util(0), 0.25+sum/(1<<40); got != want {
		t.Fatalf("utilization %v, want %v", got, want)
	}
	slot, _ := s.Lookup(3)
	s.MarkDeparted(slot, 0)
	s.ResetIdle(0)
	for id := uint64(0); id <= n; id++ {
		if slot, ok := s.Lookup(id); ok {
			s.Drop(slot)
		}
	}
	if s.Util(0) != 0.25 || s.stage[0].sum != (qsum{}) || s.Charging(0) != 0 {
		t.Fatalf("after every drop: utilization %v, sum %+v, charging %d", s.Util(0), s.stage[0].sum, s.Charging(0))
	}
	for _, v := range []float64{-1e-300, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("charging %v did not panic", v)
				}
			}()
			s.Insert(99, 0, 0, []float64{v})
		}()
	}
}

// TestChurnAllocationFree pins steady-state insert/delete churn (with
// departures and idle resets) at zero allocations once the table has
// reached its working size.
func TestChurnAllocationFree(t *testing.T) {
	s := NewState(3, nil)
	const window = 1000
	id := uint64(0)
	d := []float64{1e-4, 2e-4, 3e-4}
	churn := func() {
		for i := 0; i < window; i++ {
			id++
			slot := s.Insert(id, int64(id), 0, d)
			s.MarkDeparted(slot, int(id%3))
			if old, ok := s.Lookup(id - window); ok {
				s.Drop(old)
			}
			if id%50 == 0 {
				s.ResetIdle(int(id % 3))
			}
		}
	}
	churn() // warm up: grow to the working size
	churn()
	if allocs := testing.AllocsPerRun(5, churn); allocs != 0 {
		t.Fatalf("%d-row churn: %v allocs per run, want 0", window, allocs)
	}
}

// BenchmarkResetIdle times one idle reset of a stage with n departed
// rows pending. The reset touches no row, so restoring the stage's own
// bookkeeping after it re-arms the same n departures at O(1) cost; the
// time per reset must not grow with n.
func BenchmarkResetIdle(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"departed=1k", 1000}, {"departed=100k", 100000}} {
		n := c.n
		b.Run(c.name, func(b *testing.B) {
			s := NewState(3, nil)
			d := []float64{1e-4, 2e-4, 3e-4}
			for id := 0; id < n; id++ {
				s.MarkDeparted(s.Insert(uint64(id), 0, 0, d), 0)
			}
			armed := s.stage[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.ResetIdle(0) != n {
					b.Fatal("reset cleared the wrong row count")
				}
				s.stage[0] = armed
			}
		})
	}
}
