package expiry

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestWheelNeverEarly pins the boundary case: an entry filed in the
// cursor's own bucket (deadline within the current granule) must not
// flush until the cursor moves past that bucket — draining it on the
// same tick would purge before the deadline.
func TestWheelNeverEarly(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	w := New(time.Millisecond, base, true)
	w.Push(base.UnixNano(), 1) // tick == cur: due within the current granule
	fired := 0
	w.AdvanceTo(base.UnixNano(), func(Entry) { fired++ })
	if fired != 0 {
		t.Fatal("entry flushed before its granule elapsed")
	}
	w.AdvanceTo(base.Add(time.Millisecond).UnixNano(), func(Entry) { fired++ })
	if fired != 1 {
		t.Fatalf("entry not flushed after its granule elapsed (fired %d)", fired)
	}
}

// TestWheelPropertyVsReference drives the wheel with randomized pushes
// (already-due, level-0-near, mid-level, and beyond-horizon overflow
// deadlines), random cancellations, and advances, cross-checking against
// a reference pending set — the moral equivalent of the old binary heap
// + pending map. The properties: every entry fires at or after its
// deadline and at most one granularity late (relative to the purge
// time), none is lost or duplicated, a removed entry never fires,
// Remove reports membership exactly, the cancellation index stays in
// lockstep with the pending count, Earliest is a valid lower bound on
// the true minimum pending deadline, and ForEach visits exactly the
// pending set.
func TestWheelPropertyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := time.Unix(1_000_000, 0)
	g := time.Millisecond
	w := New(g, base, true)
	pending := map[uint64]int64{} // the reference "heap" (UnixNano deadlines)
	now := base.UnixNano()
	var nextID uint64
	var ids []uint64 // every id ever pushed, for cancellation picks

	expire := func(e Entry) {
		at, ok := pending[e.ID]
		if !ok {
			t.Fatalf("entry %d fired but is not pending (lost/duplicated)", e.ID)
		}
		if at != e.At {
			t.Fatalf("entry %d fired with deadline %v, pushed %v", e.ID, e.At, at)
		}
		if e.At > now {
			t.Fatalf("entry %d fired early: deadline %v, purge time %v", e.ID, e.At, now)
		}
		delete(pending, e.ID)
	}
	checkInvariants := func() {
		t.Helper()
		// Completeness: anything a full granule past due must have fired.
		min := int64(math.MaxInt64)
		for id, at := range pending {
			if at+int64(g) <= now {
				t.Fatalf("entry %d (deadline %v) still pending at %v, > one granule late", id, at, now)
			}
			if at < min {
				min = at
			}
		}
		if at, ok := w.Earliest(); ok {
			if len(pending) == 0 {
				t.Fatal("Earliest reported a bound on an empty reference set")
			}
			if at > min {
				t.Fatalf("Earliest = %v is not a lower bound on true min %v", at, min)
			}
		} else if len(pending) != 0 {
			t.Fatalf("Earliest empty with %d pending", len(pending))
		}
		if w.Count() != len(pending) {
			t.Fatalf("wheel count %d, reference %d", w.Count(), len(pending))
		}
		if w.indexSize() != len(pending) {
			t.Fatalf("cancellation index has %d entries, %d pending", w.indexSize(), len(pending))
		}
	}

	for step := 0; step < 4000; step++ {
		switch rng.Intn(5) {
		case 0, 1: // push a small burst
			for i := rng.Intn(4) + 1; i > 0; i-- {
				nextID++
				var off time.Duration
				switch rng.Intn(4) {
				case 0: // already due (its bucket may be behind the cursor)
					off = -time.Duration(rng.Intn(5000)) * time.Millisecond
				case 1: // level 0
					off = time.Duration(rng.Intn(64)) * time.Millisecond
				case 2: // levels 1–2
					off = time.Duration(rng.Intn(Span)) * time.Millisecond
				default: // beyond the horizon: overflow
					off = time.Duration(Span+rng.Intn(2*Span)) * time.Millisecond
				}
				at := now + int64(off)
				pending[nextID] = at
				ids = append(ids, nextID)
				w.Push(at, nextID)
			}
		case 2: // cancel: Remove must mirror reference membership exactly
			for i := rng.Intn(3) + 1; i > 0 && len(ids) > 0; i-- {
				id := ids[rng.Intn(len(ids))]
				_, live := pending[id]
				if w.Remove(id) != live {
					t.Fatalf("Remove(%d) = %v, reference pending %v", id, !live, live)
				}
				delete(pending, id)
			}
		default: // advance (possibly by zero: ripe still drains)
			now += int64(time.Duration(rng.Intn(20_000)) * time.Millisecond)
			w.AdvanceTo(now, expire)
			checkInvariants()
		}
		if step%400 == 0 { // ForEach visits exactly the pending set
			seen := map[uint64]bool{}
			w.ForEach(func(e Entry) {
				if seen[e.ID] {
					t.Fatalf("ForEach visited %d twice", e.ID)
				}
				seen[e.ID] = true
				if at, ok := pending[e.ID]; !ok || at != e.At {
					t.Fatalf("ForEach visited %d (%v), pending says %v (present %v)", e.ID, e.At, at, ok)
				}
			})
			if len(seen) != len(pending) {
				t.Fatalf("ForEach visited %d entries, %d pending", len(seen), len(pending))
			}
		}
	}

	// Drain far past every pushed deadline: nothing may be lost.
	now += int64(time.Duration(4*Span) * time.Millisecond)
	w.AdvanceTo(now, expire)
	if len(pending) != 0 {
		t.Fatalf("%d entries lost after full drain", len(pending))
	}
	if w.Count() != 0 || w.inLevels != 0 || len(w.overflow) != 0 || len(w.ripe) != 0 || w.indexSize() != 0 {
		t.Fatalf("wheel not empty after drain: count=%d inLevels=%d overflow=%d ripe=%d slots=%d",
			w.Count(), w.inLevels, len(w.overflow), len(w.ripe), w.indexSize())
	}
}

// TestWheelRemove pins the cancellation basics the property test only
// reaches statistically: a removed entry never fires, removing an
// unknown or already-fired id reports false, swap-removal keeps the
// surviving entries firing, and re-pushing a still-filed id replaces the
// stale entry instead of duplicating it.
func TestWheelRemove(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	g := time.Millisecond
	w := New(g, base, true)
	at := base.Add(10 * time.Millisecond).UnixNano()
	for id := uint64(1); id <= 3; id++ {
		w.Push(at, id) // same bucket: removal must swap-fix neighbours
	}
	if !w.Remove(2) {
		t.Fatal("Remove of a pending id reported false")
	}
	if w.Remove(2) || w.Remove(99) {
		t.Fatal("Remove of an absent id reported true")
	}
	fired := map[uint64]bool{}
	w.AdvanceTo(base.Add(20*time.Millisecond).UnixNano(), func(e Entry) { fired[e.ID] = true })
	if fired[2] {
		t.Fatal("cancelled entry fired")
	}
	if !fired[1] || !fired[3] {
		t.Fatalf("surviving entries lost after swap-removal: fired %v", fired)
	}
	if w.Remove(1) {
		t.Fatal("Remove of an already-fired id reported true")
	}

	// Re-pushing a filed id replaces the stale entry: only the second
	// deadline fires, once.
	w.Push(base.Add(30*time.Millisecond).UnixNano(), 7)
	w.Push(base.Add(40*time.Millisecond).UnixNano(), 7)
	if w.Count() != 1 {
		t.Fatalf("duplicate push left count %d, want 1", w.Count())
	}
	var fires []int64
	w.AdvanceTo(base.Add(60*time.Millisecond).UnixNano(), func(e Entry) { fires = append(fires, e.At) })
	if len(fires) != 1 || fires[0] != base.Add(40*time.Millisecond).UnixNano() {
		t.Fatalf("re-pushed id fired %v, want the replacement deadline only", fires)
	}
}

// TestWheelUnindexed pins the lazy-cancellation contract the sharded
// controller relies on: without the index, Remove always reports false,
// duplicate pushes for a reused id coexist (both fire, disambiguated by
// deadline), and nothing is lost — the caller filters stale entries by
// matching (id, deadline) against its own table.
func TestWheelUnindexed(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	w := New(time.Millisecond, base, false)
	at1 := base.Add(5 * time.Millisecond).UnixNano()
	at2 := base.Add(8 * time.Millisecond).UnixNano()
	w.Push(at1, 1)
	w.Push(at2, 1) // id reuse: both entries stay filed
	if w.Count() != 2 {
		t.Fatalf("unindexed duplicate push collapsed: count %d, want 2", w.Count())
	}
	if w.Remove(1) {
		t.Fatal("Remove on an unindexed wheel reported true")
	}
	var fires []int64
	w.AdvanceTo(base.Add(20*time.Millisecond).UnixNano(), func(e Entry) { fires = append(fires, e.At) })
	if len(fires) != 2 || fires[0] != at1 || fires[1] != at2 {
		t.Fatalf("unindexed wheel fired %v, want both pushed deadlines in order", fires)
	}
	if w.Count() != 0 {
		t.Fatalf("count %d after drain, want 0", w.Count())
	}

	// A randomized pass mirroring the indexed property test's push/advance
	// mix, minus cancellation: entries must fire at-or-after deadline, at
	// most one granule late, none lost.
	rng := rand.New(rand.NewSource(7))
	now := base.UnixNano()
	pending := map[uint64]int64{}
	var nextID uint64
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) < 2 {
			nextID++
			off := time.Duration(rng.Intn(2*Span)-1000) * time.Millisecond
			at := now + int64(off)
			pending[nextID] = at
			w.Push(at, nextID)
		} else {
			now += int64(time.Duration(rng.Intn(10_000)) * time.Millisecond)
			w.AdvanceTo(now, func(e Entry) {
				if at, ok := pending[e.ID]; !ok || at != e.At {
					t.Fatalf("entry %d fired with %v, reference %v (present %v)", e.ID, e.At, at, ok)
				}
				if e.At > now {
					t.Fatalf("entry %d fired early", e.ID)
				}
				delete(pending, e.ID)
			})
			for id, at := range pending {
				if at+int64(time.Millisecond) <= now {
					t.Fatalf("entry %d more than one granule late", id)
				}
			}
		}
	}
	now += int64(time.Duration(4*Span) * time.Millisecond)
	w.AdvanceTo(now, func(e Entry) { delete(pending, e.ID) })
	if len(pending) != 0 {
		t.Fatalf("%d entries lost after drain", len(pending))
	}
}

// checkOccupancy asserts the bitmap invariant the fast Earliest relies
// on: a level's occupancy bit is set exactly when its bucket is
// non-empty.
func checkOccupancy(t *testing.T, w *Wheel, step int) {
	t.Helper()
	for lvl := 0; lvl < levels; lvl++ {
		for idx := 0; idx < Size; idx++ {
			got := w.occ[lvl]&(1<<idx) != 0
			want := len(w.lvls[lvl][idx]) > 0
			if got != want {
				t.Fatalf("step %d: level %d bucket %d: occupancy bit %v, bucket len %d",
					step, lvl, idx, got, len(w.lvls[lvl][idx]))
			}
		}
	}
}

// TestWheelOccupancyBitmap drives random pushes, removes, and advances
// through both wheel flavors and checks after every operation that the
// occupancy bitmaps track bucket emptiness exactly, and that Earliest
// (which now reads only the bitmaps) stays a valid lower bound on every
// pending entry.
func TestWheelOccupancyBitmap(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		base := time.Unix(0, 0)
		w := New(time.Millisecond, base, indexed)
		rng := rand.New(rand.NewSource(7))
		now := int64(0)
		var ids []uint64
		var id uint64
		for step := 0; step < 4000; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				id++
				// Spread across level 0, levels 1-2, and overflow.
				at := now + rng.Int63n(int64(Span)*int64(time.Millisecond)*3/2)
				w.Push(at, id)
				ids = append(ids, id)
			case 2:
				if indexed && len(ids) > 0 {
					i := rng.Intn(len(ids))
					w.Remove(ids[i])
					ids = append(ids[:i], ids[i+1:]...)
				}
			default:
				now += rng.Int63n(int64(40 * time.Millisecond))
				w.AdvanceTo(now, func(e Entry) {})
			}
			checkOccupancy(t, w, step)
			if early, ok := w.Earliest(); ok {
				w.ForEach(func(e Entry) {
					if e.At < early {
						t.Fatalf("step %d: Earliest %d exceeds pending entry at %d", step, early, e.At)
					}
				})
			} else if w.Count() != 0 {
				t.Fatalf("step %d: Earliest empty with %d pending", step, w.Count())
			}
		}
	}
}

// TestWheelCascadeAllocationFree pins a steady push/advance cycle at
// zero allocations once the buckets have grown: the cycle files entries
// into level 0, level 1, level 2 and overflow, so cascades and overflow
// re-files run, and none of them may throw a bucket's backing array
// away.
func TestWheelCascadeAllocationFree(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		base := time.Unix(1_000_000, 0)
		g := time.Millisecond
		w := New(g, base, indexed)
		now := base.UnixNano()
		deltas := []int64{3, 70, 5000, 2 * Span} // ticks ahead: level 0, 1, 2, overflow
		var id uint64
		fired := 0
		expire := func(Entry) { fired++ }
		cycle := func() {
			w.Push(now+deltas[id%uint64(len(deltas))]*int64(g), id)
			id++
			now += int64(g)
			w.AdvanceTo(now, expire)
		}
		for i := 0; i < 2*Span; i++ { // overflow periods: every bucket at its peak
			cycle()
		}
		// One run is a Span of cycles: every level-1 and level-2 bucket
		// cascades and the overflow list is re-filed. (AllocsPerRun
		// truncates the per-run mean, so a run must cover a whole period.)
		span := func() {
			for i := 0; i < Span; i++ {
				cycle()
			}
		}
		if allocs := testing.AllocsPerRun(1, span); allocs != 0 {
			t.Fatalf("indexed=%v: push/advance cycle: %v allocs, want 0", indexed, allocs)
		}
		if fired == 0 || w.Count() == 0 {
			t.Fatalf("indexed=%v: cycle did not exercise the wheel (fired %d, pending %d)", indexed, fired, w.Count())
		}
	}
}
