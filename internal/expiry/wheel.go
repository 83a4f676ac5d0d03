// Package expiry provides the hierarchical timer wheel that backs
// deadline expiry in the wall-clock admission controller
// (internal/online).
//
// The wheel replaces a binary heap + pending map: Push is one slice
// append (O(1), no interface boxing, no heap sift), and a purge flushes
// whole buckets in O(1) amortized per expiry instead of O(log n) heap
// pops. The trade: an expiry may flush up to one level-0 bucket width
// late (never early), which only delays capacity release — the
// admission test stays sound, just momentarily conservative. Per-level
// occupancy bitmaps drive the cursor's advance as well as NextFlush, so
// a purge skips empty buckets instead of stepping through every tick.
//
// The wheel keeps no id index: cancellation is the caller's job. The
// online controller's task table already answers "is this (id,
// deadline) still live?" in one probe, so a stale entry (its request
// released, or the id re-admitted with a new deadline) is filtered at
// flush time, and the admit path pays no map insert and delete.
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

// Wheel is a 3-level hierarchical timer wheel over UnixNano deadlines.
// It is not safe for concurrent use; callers serialize access (the
// online controller holds it under its mutex).
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
}

// New builds a wheel with the given bucket granularity and time origin.
func New(granularity time.Duration, base time.Time) *Wheel {
	if granularity <= 0 {
		panic("expiry: wheel granularity must be positive")
	}
	return &Wheel{
		granularity: int64(granularity),
		base:        base.UnixNano(),
		overflowMin: math.MaxInt64,
	}
}

// Count reports the number of pending entries (including any stale
// ones the caller will discard at flush).
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

// Push schedules the id's expiry: one append, O(1). Pushes for the
// same id coexist; the caller disambiguates them by deadline.
func (w *Wheel) Push(at int64, id uint64) {
	w.count++
	tick := w.tickOf(at)
	if tick < w.cur {
		// Already due (its bucket was flushed before it arrived);
		// drained by the next advance.
		w.ripe = append(w.ripe, Entry{At: at, ID: id})
		return
	}
	w.place(Entry{At: at, ID: id}, tick)
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
			return
		}
	}
	if e.At < w.overflowMin {
		w.overflowMin = e.At
	}
	w.overflow = append(w.overflow, e)
}

// AdvanceTo moves the cursor to now, invoking expire for every item
// whose bucket has fully elapsed (so always at or after its deadline,
// at most one granularity late plus the gap between advance calls). It
// returns the number of items flushed. The expire callback must not
// push.
//
// The cursor jumps over empty buckets (see skip), so an advance costs
// O(entries flushed + occupied buckets reached + level-2 boundaries
// crossed), not one step per tick crossed; the flush sequence is the
// one a tick-by-tick walk would produce.
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
				expire(e)
			}
			w.cur++
		} else {
			w.cur = w.skip(target)
		}
		if w.cur&mask == 0 {
			w.cascade()
		}
	}
	if len(w.ripe) > 0 {
		// Everything in ripe was due when filed there.
		flushed += len(w.ripe)
		w.count -= len(w.ripe)
		for _, e := range w.ripe {
			expire(e)
		}
		w.ripe = w.ripe[:0]
	}
	return flushed
}

// skip returns the first tick after the cursor, capped at target, where
// a tick-by-tick walk would next do work, given that the cursor's own
// level-0 bucket is empty. Within the cursor's block that is the next
// occupied level-0 bucket, else the block boundary. With level 0 empty
// it is the next boundary whose level-1 bucket is occupied, else the
// next level-2 boundary (its cascade may spill level 2 or re-file
// overflow). Every boundary jumped over would spill an empty bucket, so
// its cascade is a no-op.
func (w *Wheel) skip(target uint64) uint64 {
	next := (w.cur | mask) + 1 // the block boundary
	if m := w.occ[0] >> (w.cur & mask); m != 0 {
		next = w.cur + uint64(mathbits.TrailingZeros64(m))
	} else if w.occ[0] == 0 {
		// Level-1 buckets above the cursor's block index are the
		// boundaries left before the next level-2 boundary; a shift by
		// Size (cursor in the last block) leaves none.
		block := w.cur >> bits
		if m1 := w.occ[1] >> ((block & mask) + 1); m1 != 0 {
			next = (block + 1 + uint64(mathbits.TrailingZeros64(m1))) << bits
		} else {
			next = (w.cur>>(2*bits) + 1) << (2 * bits)
		}
	}
	return min(next, target)
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
			w.ripe = append(w.ripe, e)
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

// NextFlush returns the earliest now (UnixNano) at which AdvanceTo(now)
// can flush an entry, and false when the wheel is empty: the end of the
// first tick of the earliest occupied bucket (at level 0, the end of
// the bucket), or the end of overflowMin's tick. A non-empty ripe list
// is due at any now and reports math.MinInt64. An entry flushes only
// once its whole tick has elapsed, so gating a purge on the bucket's
// start instead would run it for a whole tick without flushing.
func (w *Wheel) NextFlush() (int64, bool) {
	if w.count == 0 {
		return 0, false
	}
	if len(w.ripe) > 0 {
		return math.MinInt64, true
	}
	first := uint64(math.MaxUint64)
	for lvl := 0; lvl < levels; lvl++ {
		if occ := w.occ[lvl]; occ != 0 {
			// Rotate the occupancy bitmap so bit 0 is the cursor's
			// bucket; the earliest non-empty bucket in ring order is then
			// the lowest set bit — two bit ops instead of a 64-probe scan.
			shift := uint(lvl * bits)
			baseTick := w.cur >> shift
			d := uint64(mathbits.TrailingZeros64(mathbits.RotateLeft64(occ, -int(baseTick&mask))))
			first = min(first, (baseTick+d)<<shift)
		}
	}
	if len(w.overflow) > 0 {
		first = min(first, w.tickOf(w.overflowMin))
	}
	return w.timeOf(first + 1), true
}
