// Package expiry provides the hierarchical timer wheel that backs
// deadline expiry in the wall-clock admission controllers
// (internal/online and internal/shard).
//
// The wheel replaces a binary heap + pending map: Push is one slice
// append (O(1), no interface boxing, no heap sift), and a purge flushes
// whole buckets in O(1) amortized per expiry instead of O(log n) heap
// pops. The trade: an expiry may flush up to one level-0 bucket width
// late (never early), which only delays capacity release — the
// admission test stays sound, just momentarily conservative.
//
// The O(1) cancellation index is optional. The single-mutex controller
// keeps it (eager unlink on Release halves purge cost under high
// release traffic); the sharded controller skips it and cancels lazily
// — its open-addressing task table already answers "is this (id,
// deadline) still live?" in one probe, so a stale wheel entry is
// filtered at flush time for free, and the hot admit path saves the
// index's map insert + delete.
package expiry

import (
	"math"
	mathbits "math/bits" // the package-level `bits` constant takes the bare name
	"time"
)

// Entry is one pending deadline: the admitted request's contribution
// becomes removable from every ledger at (or shortly after) At, a
// UnixNano timestamp. The struct is deliberately pointer-free (unlike
// time.Time, which drags a *Location): buckets hold thousands of these
// under churn, and pointer-free elements copy without write barriers
// and are invisible to the garbage collector.
type Entry struct {
	At int64 // UnixNano
	ID uint64
}

// Level l has Size buckets of Size^l ticks each; an item lands in the
// innermost level that can still distinguish its tick from the cursor.
// As the cursor crosses a level boundary the matching higher-level
// bucket spills down (cascades) one level. Items beyond every level's
// horizon wait in overflow and are re-filed when the cursor approaches.
const (
	bits   = 6
	Size   = 1 << bits // 64 buckets per level
	mask   = Size - 1
	levels = 3
	// Span is the tick horizon covered by all levels together.
	Span = 1 << (bits * levels)
)

// slot records where an id's entry currently lives, for O(1)
// cancellation: the containing area (a wheel level, ripe, or overflow),
// the bucket index within a level, and the position within the slice.
// Every structural move (place, spill, refile, flush) keeps it current.
type slot struct {
	area uint8 // 0..levels-1: level; areaRipe; areaOverflow
	idx  uint8 // bucket index within a level area
	pos  int32 // position within the containing slice
}

// Non-level slot areas.
const (
	areaRipe     = levels
	areaOverflow = levels + 1
)

// Wheel is a 3-level hierarchical timer wheel over UnixNano deadlines.
// It is not safe for concurrent use; callers serialize access (the
// controllers hold it under their mutex / shard mutex).
type Wheel struct {
	granularity int64  // bucket width in nanoseconds
	base        int64  // UnixNano origin of tick 0
	cur         uint64 // cursor tick; level-0 buckets for ticks < cur are flushed
	count       int    // total pending entries (levels + ripe + overflow)
	inLevels    int    // pending entries stored in the level buckets
	lvls        [levels][Size][]Entry
	occ         [levels]uint64 // bucket-occupancy bitmaps: bit i set ⟺ len(lvls[lvl][i]) > 0
	ripe        []Entry        // already due when pushed or cascaded; drained next advance
	overflow    []Entry        // further than Span ticks ahead
	overflowMin int64          // math.MaxInt64 when overflow is empty
	refile      []Entry        // scratch copy of a bucket being re-filed

	// slots is the id→location cancellation index: Remove unlinks an
	// entry eagerly in O(1) (swap-remove from its bucket) instead of
	// leaving a stale entry for the purge to flush. At most one entry
	// per id: a Push for an id that is still filed (possible when a
	// released id is reused before its old deadline passes) replaces
	// the stale entry. nil when the wheel was built without the index —
	// then Remove always reports false, duplicate Pushes coexist, and
	// the caller filters stale entries at flush time (lazy
	// cancellation).
	slots map[uint64]slot
}

// New builds a wheel with the given bucket granularity and time origin.
// indexed selects the O(1) cancellation index; without it Remove is a
// no-op and cancellation is the caller's job (lazy filtering at flush).
func New(granularity time.Duration, base time.Time, indexed bool) *Wheel {
	if granularity <= 0 {
		panic("expiry: wheel granularity must be positive")
	}
	w := &Wheel{
		granularity: int64(granularity),
		base:        base.UnixNano(),
		overflowMin: math.MaxInt64,
	}
	if indexed {
		w.slots = map[uint64]slot{}
	}
	return w
}

// Count reports the number of pending entries (including any stale
// lazily-cancelled ones when the wheel is unindexed).
func (w *Wheel) Count() int { return w.count }

func (w *Wheel) tickOf(at int64) uint64 {
	d := at - w.base
	if d <= 0 {
		return 0
	}
	return uint64(d / w.granularity)
}

// timeOf is the start of a tick — a lower bound on every entry filed
// under it.
func (w *Wheel) timeOf(tick uint64) int64 {
	return w.base + int64(tick)*w.granularity
}

// Push schedules the id's expiry: one append, O(1). With the
// cancellation index, a stale entry for the same id (released, then the
// id reused) is unlinked first so the index stays one-entry-per-id;
// without it the caller must disambiguate duplicates by deadline.
func (w *Wheel) Push(at int64, id uint64) {
	if w.slots != nil {
		if _, dup := w.slots[id]; dup {
			w.Remove(id)
		}
	}
	w.count++
	tick := w.tickOf(at)
	if tick < w.cur {
		// Already due (its bucket was flushed before it arrived);
		// drained by the next advance.
		w.fileRipe(Entry{At: at, ID: id})
		return
	}
	w.place(Entry{At: at, ID: id}, tick)
}

// fileRipe appends to the ripe list and indexes the entry.
func (w *Wheel) fileRipe(e Entry) {
	w.ripe = append(w.ripe, e)
	if w.slots != nil {
		w.slots[e.ID] = slot{area: areaRipe, pos: int32(len(w.ripe) - 1)}
	}
}

// place files an item under its tick at the innermost level whose
// bucket width can still separate it from the cursor, or in overflow.
func (w *Wheel) place(e Entry, tick uint64) {
	for lvl := 0; lvl < levels; lvl++ {
		shift := uint(lvl * bits)
		if (tick>>shift)-(w.cur>>shift) < Size {
			idx := (tick >> shift) & mask
			w.lvls[lvl][idx] = append(w.lvls[lvl][idx], e)
			w.occ[lvl] |= 1 << idx
			w.inLevels++
			if w.slots != nil {
				w.slots[e.ID] = slot{area: uint8(lvl), idx: uint8(idx), pos: int32(len(w.lvls[lvl][idx]) - 1)}
			}
			return
		}
	}
	if e.At < w.overflowMin {
		w.overflowMin = e.At
	}
	w.overflow = append(w.overflow, e)
	if w.slots != nil {
		w.slots[e.ID] = slot{area: areaOverflow, pos: int32(len(w.overflow) - 1)}
	}
}

// AdvanceTo moves the cursor to now, invoking expire for every item
// whose bucket has fully elapsed (so always at or after its deadline,
// at most one granularity late plus the gap between advance calls). It
// returns the number of items flushed. The expire callback must not
// push.
func (w *Wheel) AdvanceTo(now int64, expire func(e Entry)) int {
	flushed := 0
	target := w.tickOf(now)
	for w.cur < target {
		if w.inLevels == 0 {
			// Levels empty: jump the cursor and pull overflow back
			// within the horizon if it is now close enough.
			w.cur = target
			w.maybeRefileOverflow()
			break
		}
		idx := w.cur & mask
		if b := w.lvls[0][idx]; len(b) > 0 {
			w.lvls[0][idx] = b[:0] // keep capacity: level 0 is hot
			w.occ[0] &^= 1 << idx
			w.inLevels -= len(b)
			w.count -= len(b)
			flushed += len(b)
			for _, e := range b {
				if w.slots != nil {
					delete(w.slots, e.ID)
				}
				expire(e)
			}
		}
		w.cur++
		if w.cur&mask == 0 {
			w.cascade()
		}
	}
	if len(w.ripe) > 0 {
		// Everything in ripe was due when filed there.
		flushed += len(w.ripe)
		w.count -= len(w.ripe)
		for _, e := range w.ripe {
			if w.slots != nil {
				delete(w.slots, e.ID)
			}
			expire(e)
		}
		w.ripe = w.ripe[:0]
	}
	return flushed
}

// Remove unlinks a pending entry in O(1): swap-remove from whatever
// bucket holds it, fixing the moved entry's index slot. Reports whether
// the id was pending. Always false on an unindexed wheel. Removing an
// overflow entry may leave overflowMin stale-low; that only makes
// Earliest more conservative, never wrong.
func (w *Wheel) Remove(id uint64) bool {
	if w.slots == nil {
		return false
	}
	s, ok := w.slots[id]
	if !ok {
		return false
	}
	delete(w.slots, id)
	var b *[]Entry
	switch s.area {
	case areaRipe:
		b = &w.ripe
	case areaOverflow:
		b = &w.overflow
	default:
		b = &w.lvls[s.area][s.idx]
		w.inLevels--
	}
	last := len(*b) - 1
	if int(s.pos) != last {
		moved := (*b)[last]
		(*b)[s.pos] = moved
		ms := w.slots[moved.ID]
		ms.pos = s.pos
		w.slots[moved.ID] = ms
	}
	*b = (*b)[:last]
	if last == 0 && s.area < levels {
		w.occ[s.area] &^= 1 << s.idx
	}
	w.count--
	return true
}

// cascade spills the next higher-level bucket down after a lower level
// wraps. Called with the cursor at a multiple of Size.
func (w *Wheel) cascade() {
	i1 := (w.cur >> bits) & mask
	w.occ[1] &^= 1 << i1
	w.spill(&w.lvls[1][i1])
	if i1 != 0 {
		return
	}
	i2 := (w.cur >> (2 * bits)) & mask
	w.occ[2] &^= 1 << i2
	w.spill(&w.lvls[2][i2])
	if i2 == 0 {
		w.maybeRefileOverflow()
	}
}

// spill empties a bucket and re-files its items relative to the
// current cursor (one level down, or ripe when already due).
func (w *Wheel) spill(bucket *[]Entry) {
	if len(*bucket) == 0 {
		return
	}
	w.inLevels -= len(*bucket)
	w.refileAll(bucket)
}

// refileAll re-files every item of a bucket, in order. The items move to
// the wheel's scratch buffer first and the bucket keeps its capacity, so
// a cascade allocates nothing once the buffers have grown; place may
// append to the bucket being emptied.
func (w *Wheel) refileAll(bucket *[]Entry) {
	w.refile = append(w.refile[:0], *bucket...)
	*bucket = (*bucket)[:0]
	for _, e := range w.refile {
		if tick := w.tickOf(e.At); tick < w.cur {
			w.fileRipe(e)
		} else {
			w.place(e, tick)
		}
	}
}

// maybeRefileOverflow re-files overflow items once the cursor is within
// one horizon of the earliest; items still too far re-enter overflow.
func (w *Wheel) maybeRefileOverflow() {
	if len(w.overflow) == 0 || w.tickOf(w.overflowMin) >= w.cur+Span {
		return
	}
	w.overflowMin = math.MaxInt64
	w.refileAll(&w.overflow)
}

// Earliest returns a lower bound (UnixNano) on the next pending entry
// (the start of the earliest non-empty bucket), and false when the
// wheel is empty.
func (w *Wheel) Earliest() (int64, bool) {
	if w.count == 0 {
		return 0, false
	}
	best := int64(math.MaxInt64)
	for _, e := range w.ripe {
		if e.At < best {
			best = e.At
		}
	}
	if w.inLevels > 0 {
		for lvl := 0; lvl < levels; lvl++ {
			occ := w.occ[lvl]
			if occ == 0 {
				continue
			}
			// Rotate the occupancy bitmap so bit 0 is the cursor's bucket;
			// the earliest non-empty bucket in ring order is then the
			// lowest set bit. Replaces a 64-probe scan per level with two
			// bit ops — this runs on every purge that flushed something.
			shift := uint(lvl * bits)
			baseTick := w.cur >> shift
			d := uint64(mathbits.TrailingZeros64(mathbits.RotateLeft64(occ, -int(baseTick&mask))))
			if t := w.timeOf((baseTick + d) << shift); t < best {
				best = t
			}
		}
	}
	if w.overflowMin < best {
		best = w.overflowMin
	}
	return best, true
}

// ForEach visits every pending entry in no particular order — the
// reconciliation pass uses it as the membership scan that replaced the
// old pending map.
func (w *Wheel) ForEach(fn func(e Entry)) {
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

// indexSize reports the cancellation-index cardinality (tests only).
func (w *Wheel) indexSize() int { return len(w.slots) }
