package expiry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// forEach visits every pending entry of the wheel in no particular
// order: ripe, then each level's buckets, then overflow.
func forEach(w *Wheel, fn func(e Entry)) {
	for _, e := range w.ripe {
		fn(e)
	}
	for lvl := range w.lvls {
		for idx := range w.lvls[lvl] {
			for _, e := range w.lvls[lvl][idx] {
				fn(e)
			}
		}
	}
	for _, e := range w.overflow {
		fn(e)
	}
}

// TestWheelNeverEarly pins the boundary case: an entry filed in the
// cursor's own bucket (deadline within the current granule) must not
// flush until the cursor moves past that bucket — draining it on the
// same tick would purge before the deadline.
func TestWheelNeverEarly(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	w := New(time.Millisecond, base)
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
// deadlines) and advances, cross-checking against a reference pending
// set — the moral equivalent of the old binary heap + pending map. The
// properties: every entry fires at or after its deadline and at most
// one granularity late (relative to the purge time), none is lost or
// duplicated, the count stays in lockstep with the pending set,
// NextFlush is no later than the end of the earliest pending deadline's
// tick, and ForEach visits exactly the pending set.
func TestWheelPropertyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := time.Unix(1_000_000, 0)
	g := time.Millisecond
	w := New(g, base)
	pending := map[uint64]int64{} // the reference "heap" (UnixNano deadlines)
	now := base.UnixNano()
	var nextID uint64

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
		if at, ok := w.NextFlush(); ok {
			if len(pending) == 0 {
				t.Fatal("NextFlush reported a time on an empty reference set")
			}
			if end := w.timeOf(w.tickOf(min) + 1); at > end {
				t.Fatalf("NextFlush = %v is after the earliest deadline %v's tick ends (%v)", at, min, end)
			}
		} else if len(pending) != 0 {
			t.Fatalf("NextFlush empty with %d pending", len(pending))
		}
		if w.Count() != len(pending) {
			t.Fatalf("wheel count %d, reference %d", w.Count(), len(pending))
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
				w.Push(at, nextID)
			}
		default: // advance (possibly by zero: ripe still drains)
			now += int64(time.Duration(rng.Intn(20_000)) * time.Millisecond)
			w.AdvanceTo(now, expire)
			checkInvariants()
		}
		if step%400 == 0 { // ForEach visits exactly the pending set
			seen := map[uint64]bool{}
			forEach(w, func(e Entry) {
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
	if w.Count() != 0 || w.inLevels != 0 || len(w.overflow) != 0 || len(w.ripe) != 0 {
		t.Fatalf("wheel not empty after drain: count=%d inLevels=%d overflow=%d ripe=%d",
			w.Count(), w.inLevels, len(w.overflow), len(w.ripe))
	}
}

// TestWheelUnindexed pins the lazy-cancellation contract the online
// controller relies on: the wheel keeps no id index, so duplicate
// pushes for a reused id coexist (both fire, disambiguated by
// deadline), and nothing is lost — the caller filters stale entries by
// matching (id, deadline) against its own table.
func TestWheelUnindexed(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	w := New(time.Millisecond, base)
	at1 := base.Add(5 * time.Millisecond).UnixNano()
	at2 := base.Add(8 * time.Millisecond).UnixNano()
	w.Push(at1, 1)
	w.Push(at2, 1) // id reuse: both entries stay filed
	if w.Count() != 2 {
		t.Fatalf("unindexed duplicate push collapsed: count %d, want 2", w.Count())
	}
	var fires []int64
	w.AdvanceTo(base.Add(20*time.Millisecond).UnixNano(), func(e Entry) { fires = append(fires, e.At) })
	if len(fires) != 2 || fires[0] != at1 || fires[1] != at2 {
		t.Fatalf("unindexed wheel fired %v, want both pushed deadlines in order", fires)
	}
	if w.Count() != 0 {
		t.Fatalf("count %d after drain, want 0", w.Count())
	}

	// A randomized push/advance pass: entries must fire at-or-after deadline, at
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

// checkOccupancy asserts the bitmap invariant the fast NextFlush relies
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

// TestWheelOccupancyBitmap drives random pushes and advances and checks after every operation that the
// occupancy bitmaps track bucket emptiness exactly, and that NextFlush
// (which reads only the bitmaps) is never later than any pending
// entry's flush, the end of its tick.
func TestWheelOccupancyBitmap(t *testing.T) {
	w := New(time.Millisecond, time.Unix(0, 0))
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	var id uint64
	for step := 0; step < 4000; step++ {
		if rng.Intn(2) == 0 {
			id++
			// Spread across level 0, levels 1-2, and overflow.
			at := now + rng.Int63n(int64(Span)*int64(time.Millisecond)*3/2)
			w.Push(at, id)
		} else {
			now += rng.Int63n(int64(40 * time.Millisecond))
			w.AdvanceTo(now, func(e Entry) {})
		}
		checkOccupancy(t, w, step)
		if next, ok := w.NextFlush(); ok {
			forEach(w, func(e Entry) {
				if end := w.timeOf(w.tickOf(e.At) + 1); next > end {
					t.Fatalf("step %d: NextFlush %d is after pending entry %d's tick ends (%d)", step, next, e.At, end)
				}
			})
		} else if w.Count() != 0 {
			t.Fatalf("step %d: NextFlush empty with %d pending", step, w.Count())
		}
	}
}

// advanceReference is AdvanceTo as a tick-by-tick walk: one loop
// iteration per tick crossed, a cascade at every block boundary. The
// skipping AdvanceTo must reproduce its flush sequence and end state
// exactly.
func (w *Wheel) advanceReference(now int64, expire func(e Entry)) int {
	flushed := 0
	target := w.tickOf(now)
	for w.cur < target {
		if w.inLevels == 0 {
			w.cur = target
			w.maybeRefileOverflow()
			break
		}
		idx := w.cur & mask
		if b := w.lvls[0][idx]; len(b) > 0 {
			w.lvls[0][idx] = b[:0]
			w.occ[0] &^= 1 << idx
			w.inLevels -= len(b)
			w.count -= len(b)
			flushed += len(b)
			for _, e := range b {
				expire(e)
			}
		}
		w.cur++
		if w.cur&mask == 0 {
			w.cascade()
		}
	}
	if len(w.ripe) > 0 {
		flushed += len(w.ripe)
		w.count -= len(w.ripe)
		for _, e := range w.ripe {
			expire(e)
		}
		w.ripe = w.ripe[:0]
	}
	return flushed
}

// sortedEntries lists a wheel's pending entries in (At, ID) order.
func sortedEntries(w *Wheel) []Entry {
	var es []Entry
	forEach(w, func(e Entry) { es = append(es, e) })
	sort.Slice(es, func(i, j int) bool {
		if es[i].At != es[j].At {
			return es[i].At < es[j].At
		}
		return es[i].ID < es[j].ID
	})
	return es
}

// TestWheelAdvanceMatchesTickWalk drives a skipping wheel and a
// tick-by-tick reference wheel with identical random operations —
// pushes already due, at level 0, 1 or 2, or in overflow (a few reusing
// an id), and advances across every level boundary shape — and requires
// after every call the same expire sequence, in order, and the same
// Count, NextFlush, occupancy bitmaps, cursor and pending set. Some
// advances stop just short of NextFlush and some land just past it: no
// advance, on either wheel, may flush anything before NextFlush.
func TestWheelAdvanceMatchesTickWalk(t *testing.T) {
	g := int64(time.Millisecond)
	edges := []int64{0, 1, 63, 64, 65, 4095, 4096, 4097, Span - 1, Span, Span + 1}
	base := time.Unix(1_000_000, 0)
	fast, ref := New(time.Millisecond, base), New(time.Millisecond, base)
	rng := rand.New(rand.NewSource(13))
	now := base.UnixNano()
	var nextID uint64
	var gotSeq, wantSeq []Entry
	check := func(step int, op string) {
		t.Helper()
		if len(gotSeq) != len(wantSeq) {
			t.Fatalf("step %d (%s): flushed %d entries, reference %d", step, op, len(gotSeq), len(wantSeq))
		}
		for i := range gotSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Fatalf("step %d (%s): expire %d = %+v, reference %+v", step, op, i, gotSeq[i], wantSeq[i])
			}
		}
		if fast.cur != ref.cur || fast.occ != ref.occ || fast.Count() != ref.Count() {
			t.Fatalf("step %d (%s): cur/occ/count %d/%x/%d, reference %d/%x/%d",
				step, op, fast.cur, fast.occ, fast.Count(), ref.cur, ref.occ, ref.Count())
		}
		fa, oka := fast.NextFlush()
		fb, okb := ref.NextFlush()
		if fa != fb || oka != okb || oka != (fast.Count() > 0) {
			t.Fatalf("step %d (%s): NextFlush (%d, %v), reference (%d, %v), count %d", step, op, fa, oka, fb, okb, fast.Count())
		}
		a, b := sortedEntries(fast), sortedEntries(ref)
		if len(a) != len(b) {
			t.Fatalf("step %d (%s): ForEach visited %d, reference %d", step, op, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d (%s): ForEach entry %d = %+v, reference %+v", step, op, i, a[i], b[i])
			}
		}
	}
	flushes := 0
	for step := 0; step < 2000; step++ {
		if rng.Intn(5) <= 1 { // push a small burst
			for i := rng.Intn(4) + 1; i > 0; i-- {
				var ticks int64
				switch rng.Intn(5) {
				case 0: // already due
					ticks = -rng.Int63n(5000)
				case 1: // level 0
					ticks = rng.Int63n(Size)
				case 2: // level 1
					ticks = Size + rng.Int63n(Size*Size-Size)
				case 3: // level 2
					ticks = Size*Size + rng.Int63n(Span-Size*Size)
				default: // overflow
					ticks = Span + rng.Int63n(2*Span)
				}
				id := nextID + 1
				if nextID > 0 && rng.Intn(8) == 0 {
					id = uint64(rng.Int63n(int64(nextID))) + 1 // reuse: both entries stay filed
				} else {
					nextID++
				}
				at := now + ticks*g + rng.Int63n(g)
				fast.Push(at, id)
				ref.Push(at, id)
			}
			gotSeq, wantSeq = gotSeq[:0], wantSeq[:0]
			check(step, "push")
			continue
		}
		// advance
		nf, pending := fast.NextFlush()
		switch r := rng.Intn(8); {
		case r == 0 && pending && nf > now: // just short of the next flush
			now = max(now, nf-1-rng.Int63n(g))
		case r == 1 && pending && nf > now: // at it or just past it
			now = nf + rng.Int63n(g)
		case r == 2:
			now += rng.Int63n(3*Span)*g + rng.Int63n(g)
		default:
			now += edges[rng.Intn(len(edges))]*g + rng.Int63n(g)
		}
		gotSeq, wantSeq = gotSeq[:0], wantSeq[:0]
		n := fast.AdvanceTo(now, func(e Entry) { gotSeq = append(gotSeq, e) })
		m := ref.advanceReference(now, func(e Entry) { wantSeq = append(wantSeq, e) })
		if n != m {
			t.Fatalf("step %d: AdvanceTo flushed %d, reference %d", step, n, m)
		}
		if m > 0 && now < nf {
			t.Fatalf("step %d: the reference flushed %d entries at %d, before NextFlush %d", step, m, now, nf)
		}
		flushes += n
		check(step, "advance")
	}
	if flushes == 0 {
		t.Fatal("the run flushed nothing")
	}
}

// BenchmarkWheelAdvanceSparse is the simulated-fleet shape: one push and
// one purge every 100–200 ticks, deadlines 500–4500 ticks out, so fewer
// than one entry expires per 64-tick block and a tick-by-tick advance
// spends its time crossing empty buckets. One op is one push plus one
// purge.
func BenchmarkWheelAdvanceSparse(b *testing.B) {
	benchWheel(b, 1, func(id uint64) (ahead, step int64) {
		return 500 + int64(id*7919%4000), 100 + int64(id*104729%101)
	})
}

// BenchmarkWheelAdvanceDense is the concurrent wall-clock shape: 12
// pushes per 1 ms tick, deadlines 20–220 ticks out, and a purge every
// tick, so nearly every level-0 bucket is occupied. One op is 12 pushes
// plus a one-tick purge.
func BenchmarkWheelAdvanceDense(b *testing.B) {
	benchWheel(b, 12, func(id uint64) (ahead, step int64) {
		return 20 + int64(id*7919%200), 1
	})
}

// benchWheel runs push/advance cycles: per op, pushes entries at the given
// number of ticks ahead, then advances the clock by step ticks. The
// wheel is warmed up first so its buckets have grown.
func benchWheel(b *testing.B, pushes int, shape func(id uint64) (ahead, step int64)) {
	g := int64(time.Millisecond)
	base := time.Unix(1_000_000, 0)
	w := New(time.Millisecond, base)
	now := base.UnixNano()
	var id uint64
	expire := func(Entry) {}
	op := func() {
		var step int64
		for i := 0; i < pushes; i++ {
			id++
			var ahead int64
			ahead, step = shape(id)
			w.Push(now+ahead*g, id)
		}
		now += step * g
		w.AdvanceTo(now, expire)
	}
	for i := 0; i < 2*Size*Size; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestWheelCascadeAllocationFree pins a steady push/advance cycle at
// zero allocations once the buckets have grown: the cycle files entries
// into level 0, level 1, level 2 and overflow, so cascades and overflow
// re-files run, and none of them may throw a bucket's backing array
// away.
func TestWheelCascadeAllocationFree(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	g := time.Millisecond
	w := New(g, base)
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
	// Two overflow periods bring every bucket to its peak.
	for i := 0; i < 2*Span; i++ {
		cycle()
	}
	// One run is a Span of cycles: every level-1 and level-2 bucket
	// cascades and the overflow list is re-filed. AllocsPerRun
	// truncates the per-run mean, so a run must cover a whole period;
	// over ten runs a stray runtime allocation reads 0 and one per
	// period still reads 1.
	span := func() {
		for i := 0; i < Span; i++ {
			cycle()
		}
	}
	if allocs := testing.AllocsPerRun(10, span); allocs != 0 {
		t.Fatalf("push/advance cycle: %v allocs, want 0", allocs)
	}
	if fired == 0 || w.Count() == 0 {
		t.Fatalf("cycle did not exercise the wheel (fired %d, pending %d)", fired, w.Count())
	}
}
