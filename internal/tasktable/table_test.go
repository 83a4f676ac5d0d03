package tasktable

import "testing"

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
func insertRow(t *Table, id uint64, stamp int64, v func(j int) float64) int {
	slot := t.insert(id, stamp, 0)
	for j := 0; j < t.stages; j++ {
		t.setContrib(slot, j, v(j))
	}
	return slot
}

// remove drops every stage the row still charges, then deletes it.
func remove(t *Table, slot int) {
	for j := 0; j < t.stages; j++ {
		if t.Present(slot, j) {
			t.dropStage(slot, j)
		}
	}
	t.deleteRow(slot)
}

// checkModel requires every key of the model to be findable with its
// stamp, and the table to hold exactly the model's rows.
func checkModel(t *testing.T, tab *Table, model map[uint64]int64, step int) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("step %d: table holds %d rows, model %d", step, tab.Len(), len(model))
	}
	for id, stamp := range model {
		slot, ok := tab.Lookup(id)
		if !ok {
			t.Fatalf("step %d: id %d lost", step, id)
		}
		if got := tab.Stamp(slot); got != stamp {
			t.Fatalf("step %d: id %d has stamp %d, want %d", step, id, got, stamp)
		}
		if got := tab.Contrib(slot, 1); got != float64(stamp) {
			t.Fatalf("step %d: id %d carries contribution %v, want %v", step, id, got, float64(stamp))
		}
	}
	for j := 0; j < tab.stages; j++ {
		if tab.Charging(j) != len(model) {
			t.Fatalf("step %d: stage %d charged by %d rows, want %d", step, j, tab.Charging(j), len(model))
		}
	}
}

// TestBackwardShiftDeleteKeepsKeysFindable drives random inserts and
// deletes over a small key space, so probe clusters form and wrap, and
// checks every remaining key stays findable with its own row after each
// backward-shift deletion.
func TestBackwardShiftDeleteKeepsKeysFindable(t *testing.T) {
	tab := newTable(2)
	next := xorshift(0x9E3779B97F4A7C15)
	model := map[uint64]int64{}
	for step := 0; step < 20000; step++ {
		id := next(512) * 1024 // multiples collide in the low hash bits
		if next(4) == 0 {
			id = MaxID - next(3) // the spill row and its neighbours
		}
		if _, ok := model[id]; ok {
			slot, _ := tab.Lookup(id)
			remove(&tab, slot)
			delete(model, id)
			if _, ok := tab.Lookup(id); ok {
				t.Fatalf("step %d: deleted id %d still found", step, id)
			}
		} else {
			stamp := int64(step)
			insertRow(&tab, id, stamp, func(int) float64 { return float64(stamp) })
			model[id] = stamp
		}
		if step%97 == 0 {
			checkModel(t, &tab, model, step)
		}
	}
	checkModel(t, &tab, model, -1)
}

// TestGrowPreservesRows fills a table through several doublings and
// checks each row keeps its stamp, level, contributions, and departed
// and cleared bits.
func TestGrowPreservesRows(t *testing.T) {
	const n = 1000
	tab := newTable(3)
	contrib := func(id uint64, j int) float64 { return float64(id)*10 + float64(j) }
	for id := uint64(0); id < n; id++ {
		key := id
		if id == n-1 {
			key = MaxID
		}
		slot := tab.insert(key, int64(id)+7, uint8(id%8))
		for j := 0; j < 3; j++ {
			tab.setContrib(slot, j, contrib(id, j))
		}
		switch id % 3 {
		case 1:
			tab.MarkDeparted(slot, 2, key)
		case 2:
			tab.MarkDeparted(slot, 0, key)
		}
	}
	if len(tab.keys) <= minSize {
		t.Fatalf("table never grew: %d slots", len(tab.keys))
	}
	// Stage 0's idle reset clears exactly the id%3 == 2 rows.
	if cleared := tab.resetIdle(0, &kahan{}); cleared != n/3 {
		t.Fatalf("idle reset cleared %d rows, want %d", cleared, n/3)
	}
	for id := uint64(0); id < n; id++ {
		key := id
		if id == n-1 {
			key = MaxID
		}
		slot, ok := tab.Lookup(key)
		if !ok {
			t.Fatalf("id %d lost across growth", id)
		}
		if tab.Stamp(slot) != int64(id)+7 || tab.Level(slot) != uint8(id%8) {
			t.Fatalf("id %d: stamp %d level %d", id, tab.Stamp(slot), tab.Level(slot))
		}
		for j := 0; j < 3; j++ {
			want := contrib(id, j)
			if id%3 == 2 && j == 0 {
				want = 0
			}
			if got := tab.Contrib(slot, j); got != want {
				t.Fatalf("id %d stage %d: contribution %v, want %v", id, j, got, want)
			}
			if present := tab.Present(slot, j); present == (id%3 == 2 && j == 0) {
				t.Fatalf("id %d stage %d: present = %v", id, j, present)
			}
			if dep := tab.departedAt(slot, j); dep != (id%3 == 1 && j == 2) {
				t.Fatalf("id %d stage %d: departed = %v", id, j, dep)
			}
		}
	}
	if got, want := tab.Charging(0), n-n/3; got != want {
		t.Fatalf("stage 0 charged by %d rows, want %d", got, want)
	}
}

// TestClearedRowRecycledInPlace checks a row cleared at every stage
// lingers without charging anything, and that re-inserting its ID
// recycles the same slot under the new stamp, charging every stage
// again. A row that still charges a stage cannot be re-inserted.
func TestClearedRowRecycledInPlace(t *testing.T) {
	for _, id := range []uint64{5, MaxID} {
		tab := newTable(2)
		slot := insertRow(&tab, id, 1, func(int) float64 { return 0.25 })
		tab.MarkDeparted(slot, 0, id)
		tab.resetIdle(0, &kahan{})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("id %#x: insert over a row still charging stage 1 did not panic", id)
				}
			}()
			tab.insert(id, 2, 0)
		}()
		tab.MarkDeparted(slot, 1, id)
		sum := kahan{}
		sum.add(0.25)
		sum.add(1e-17) // residue the rebaseline must drop
		tab.resetIdle(1, &sum)
		if sum != (kahan{}) || tab.Live(slot) || tab.Len() != 1 {
			t.Fatalf("id %#x: after both resets sum=%+v live=%v len=%d", id, sum, tab.Live(slot), tab.Len())
		}
		if got := tab.insert(id, 2, 3); got != slot {
			t.Fatalf("id %#x: recycled into slot %d, want %d", id, got, slot)
		}
		if tab.Stamp(slot) != 2 || tab.Level(slot) != 3 || !tab.Live(slot) || tab.Len() != 1 {
			t.Fatalf("id %#x: recycled row stamp %d level %d live %v len %d",
				id, tab.Stamp(slot), tab.Level(slot), tab.Live(slot), tab.Len())
		}
		for j := 0; j < 2; j++ {
			if !tab.Present(slot, j) || tab.departedAt(slot, j) || tab.Charging(j) != 1 {
				t.Fatalf("id %#x stage %d: recycled row not charging afresh", id, j)
			}
		}
	}
}

// TestResetIdleDrainsAscending pins the idle reset's drain order
// (ascending ID, each row once) and its skipping of a stale entry (a
// row deleted after it departed): the Kahan sum is order-sensitive at
// the last bit, so it must equal the sum fed in ascending-ID order. Row
// 5 never departs, so the sum is not rebaselined.
func TestResetIdleDrainsAscending(t *testing.T) {
	tab := newTable(1)
	ids := []uint64{40, 3, MaxID, 17, 0, 99, 1 << 40, 5}
	contrib := map[uint64]float64{40: 0.1, 3: 0.7, MaxID: 1e-9, 17: 0.5, 0: 0.3, 99: 1.0 / 3, 1 << 40: 0.2, 5: 0.05}
	var sum kahan
	for i, id := range ids {
		slot := insertRow(&tab, id, int64(i), func(int) float64 { return contrib[id] })
		sum.add(contrib[id])
		if id != 5 {
			tab.MarkDeparted(slot, 0, id)
			tab.MarkDeparted(slot, 0, id) // a second mark is a no-op
		}
	}
	slot, _ := tab.Lookup(17)
	sum.sub(0.5, tab.dropStage(slot, 0))
	tab.deleteRow(slot) // stale entry: row gone
	want, inserted := sum, sum
	for _, id := range []uint64{0, 3, 40, 99, 1 << 40, MaxID} {
		want.sub(contrib[id], 1)
	}
	for _, id := range []uint64{40, 3, MaxID, 0, 99, 1 << 40} {
		inserted.sub(contrib[id], 1)
	}
	if want == inserted {
		t.Fatal("values do not tell the drain orders apart")
	}
	if n := tab.resetIdle(0, &sum); n != 6 || sum != want {
		t.Fatalf("drained %d rows to %+v, want 6 rows to %+v", n, sum, want)
	}
	if tab.Charging(0) != 1 || len(tab.dep[0]) != 0 || tab.pending[0] != 0 {
		t.Fatalf("after drain: charging %d, list %d, pending %d", tab.Charging(0), len(tab.dep[0]), tab.pending[0])
	}
}

// TestResetIdleEmptiesStage drives the unsorted branch: every row still
// charging stage 0 has departed, so the reset empties the stage. The
// list carries a stale entry (row deleted), a duplicate (row deleted,
// re-inserted and departed again), a row recycled in place, a repeated
// mark and the spill row. The sum must end exactly 0 and the counts
// must match the rows left charging stage 1.
func TestResetIdleEmptiesStage(t *testing.T) {
	tab := newTable(2)
	var sum kahan
	add := func(id uint64, v float64) int {
		slot := insertRow(&tab, id, int64(id), func(int) float64 { return v })
		sum.add(v)
		return slot
	}
	drop := func(id uint64) {
		slot, _ := tab.Lookup(id)
		sum.sub(tab.Contrib(slot, 0), tab.dropStage(slot, 0))
		tab.dropStage(slot, 1)
		tab.deleteRow(slot)
	}
	// Recycle row 3 in place: clear both stages, then insert it again.
	slot3 := add(3, 0.3)
	tab.MarkDeparted(slot3, 0, 3)
	tab.MarkDeparted(slot3, 1, 3)
	tab.resetIdle(0, &sum)
	tab.resetIdle(1, &kahan{})
	if got := add(3, 0.3); got != slot3 {
		t.Fatalf("row 3 recycled into slot %d, want %d", got, slot3)
	}

	tab.MarkDeparted(add(1, 0.1), 0, 1)
	drop(1) // stale entry
	tab.MarkDeparted(add(2, 0.2), 0, 2)
	drop(2)
	tab.MarkDeparted(add(2, 0.7), 0, 2) // duplicate entry, live row
	slot4 := add(4, 1.0/3)
	tab.MarkDeparted(slot4, 0, 4)
	tab.MarkDeparted(slot4, 0, 4) // no-op
	tab.MarkDeparted(add(MaxID, 1e-9), 0, MaxID)
	tab.MarkDeparted(slot3, 0, 3)
	sum.add(1e-17) // residue the rebaseline must drop

	if p, c := tab.pending[0], tab.Charging(0); p != 4 || c != 4 {
		t.Fatalf("before reset: %d flagged of %d charging, want 4 of 4", p, c)
	}
	if n := tab.resetIdle(0, &sum); n != 4 {
		t.Fatalf("reset cleared %d rows, want 4", n)
	}
	if sum != (kahan{}) {
		t.Fatalf("sum after emptying the stage = %+v, want exactly 0", sum)
	}
	if tab.Charging(0) != 0 || tab.Charging(1) != 4 || tab.pending[0] != 0 || len(tab.dep[0]) != 0 {
		t.Fatalf("after reset: charging %d/%d, pending %d, list %d",
			tab.Charging(0), tab.Charging(1), tab.pending[0], len(tab.dep[0]))
	}
	for _, id := range []uint64{2, 3, 4, MaxID} {
		slot, ok := tab.Lookup(id)
		if !ok || tab.Present(slot, 0) || tab.Contrib(slot, 0) != 0 || tab.departedAt(slot, 0) ||
			!tab.Present(slot, 1) || !tab.Live(slot) {
			t.Fatalf("row %#x: not cleared at stage 0 alone", id)
		}
	}
	if _, ok := tab.Lookup(1); ok {
		t.Fatal("deleted row 1 came back")
	}
}

// TestDepartedListBounded checks a stage that never idles keeps its
// departed list bounded: its departed rows expire instead of being
// reset, and once stale entries make up half the list it is compacted
// rather than grown.
func TestDepartedListBounded(t *testing.T) {
	tab := newTable(2)
	var inflight []uint64 // rows live for 10 admissions, then expire
	longest := 0
	for id := uint64(1); id <= 5000; id++ {
		slot := insertRow(&tab, id, int64(id), func(int) float64 { return 1e-3 })
		tab.MarkDeparted(slot, 0, id)
		if inflight = append(inflight, id); len(inflight) > 10 {
			old, _ := tab.Lookup(inflight[0])
			remove(&tab, old)
			inflight = inflight[1:]
		}
		longest = max(longest, len(tab.dep[0]))
	}
	if longest > 2*compactMin {
		t.Fatalf("departed list reached %d entries on a stage that never idles, want ≤ %d", longest, 2*compactMin)
	}
	if n := tab.resetIdle(0, &kahan{}); n != len(inflight) {
		t.Fatalf("idle reset cleared %d rows, want %d", n, len(inflight))
	}
	if n := len(tab.dep[0]); n != 0 {
		t.Fatalf("departed list holds %d entries after an idle reset", n)
	}
}

// TestChurnAllocationFree pins steady-state insert/delete churn (with
// departures and idle resets) at zero allocations once the table and
// departed lists have reached their working size.
func TestChurnAllocationFree(t *testing.T) {
	tab := newTable(3)
	const window = 1000
	id := uint64(0)
	churn := func() {
		for i := 0; i < window; i++ {
			id++
			slot := insertRow(&tab, id, int64(id), func(j int) float64 { return 1e-4 * float64(j+1) })
			tab.MarkDeparted(slot, int(id%3), id)
			if old, ok := tab.Lookup(id - window); ok {
				remove(&tab, old)
			}
			if id%50 == 0 {
				tab.resetIdle(int(id%3), &kahan{})
			}
		}
	}
	churn() // warm up: grow to the working size
	churn()
	if allocs := testing.AllocsPerRun(5, churn); allocs != 0 {
		t.Fatalf("%d-row churn: %v allocs per run, want 0", window, allocs)
	}
}
