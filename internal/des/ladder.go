package des

import (
	"math"
	"math/bits"
)

// The calendar is a ladder queue (Tang/Goh/Thng-style), the simulated-time
// analogue of the PR 4/PR 7 hierarchical timer wheels:
//
//   - bottom: the near-future events, fully sorted by (time, seq), drained
//     from bottomHead with no per-pop reordering. Each entry carries its
//     (time, seq) key inline, so searching bottom never touches the
//     record arena. New events that land inside bottom's span are placed
//     by a gallop from bottomHead and a binary search inside the bracket
//     it finds, then spliced in by shifting whichever side is shorter:
//     the entries before the insert point move one slot toward the head
//     into a drained slot, or the entries after it move toward the tail.
//     Such inserts are common: preemptive fixed-priority stages keep
//     scheduling near-future completions, so 77 % of the full pipeline's
//     inserts land in bottom (80 % on the simulated fleet, 55 % with
//     admission alone), about 3 entries past bottomHead in a bottom of
//     about 17 undrained entries.
//   - rungs:  up to maxRungs levels of nBuckets buckets each, every level
//     256× finer than its parent. Buckets are unsorted append-only slot
//     lists; a [4]uint64 occupancy bitmap per rung makes "next non-empty
//     bucket" a rotate+TrailingZeros, never a scan. When the drain reaches
//     a bucket it is sorted (once) into bottom, or — if it is still large —
//     spawned into a finer child rung first.
//   - top:    the unsorted far future (everything at or beyond topStart).
//     When bottom and all rungs drain, top is cut down into a fresh rung 0
//     spanning [topMin, topMax], amortizing its sort across future drains.
//
// Every event is appended O(1) at insert and touched O(1) amortized on its
// way down the ladder, so schedule+fire is amortized O(1) versus the
// binary heap's O(log n) — and the structure holds int32 slot indices
// into the simulator's record arena (rungs and top bare, bottom beside
// their keys), so the queue itself is pointer-free and GC-invisible.
//
// Ordering invariant: all events in bottom precede all events in rung i,
// which precede all events in rung i+1's unconsumed buckets, which precede
// all events in top; within bottom, order is exactly (time, seq). Ties in
// time are broken by seq everywhere a comparison happens (sortEntries,
// insertBottom), so pop order is bit-identical to the reference heap's.

const (
	nBuckets    = 256 // buckets per rung; must stay 64*occWords
	occWords    = 4   // uint64 words in the occupancy bitmap
	maxRungs    = 8   // beyond this depth a bucket is sorted, not subdivided
	spawnAbove  = 48  // bucket size that triggers subdividing into a child rung
	smallSortN  = 24  // insertion-sort cutoff inside sortEntries
	topSpawnMin = 48  // top sizes at or below this sort straight into bottom
)

// rung is one calendar level: nBuckets equal-width buckets covering
// [start, start+width*nBuckets).
type rung struct {
	buckets [nBuckets][]int32
	occ     [occWords]uint64
	start   Time    // absolute time of bucket 0's left edge
	width   Time    // bucket width
	inv     float64 // 1/width, hoisted out of the insert path
	cur     int     // buckets below cur are already drained
	count   int     // slots stored across all buckets (including cancelled)
}

func (r *rung) reset(start Time, span Time) {
	r.start = start
	r.width = span / nBuckets
	r.inv = 1 / r.width
	r.cur = 0
	r.count = 0
	r.occ = [occWords]uint64{}
	for i := range r.buckets {
		r.buckets[i] = r.buckets[i][:0]
	}
}

// end returns the absolute right edge of the rung's span.
func (r *rung) end() Time { return r.start + r.width*nBuckets }

// bucketFor maps an absolute time to a bucket index, clamped to
// [r.cur, nBuckets-1]. The float comparison happens before the int
// conversion: converting an out-of-range float is not portable Go, and
// times right at the rung edge can round either way.
func (r *rung) bucketFor(t Time) int {
	f := (t - r.start) * r.inv
	// NaN and ±Inf widths are excluded by the spawn guards, but f can
	// still land outside [cur, nBuckets) through rounding; clamp first.
	if !(f > float64(r.cur)) {
		return r.cur
	}
	if f >= nBuckets-1 {
		return nBuckets - 1
	}
	return int(f)
}

func (r *rung) place(slot int32, t Time) {
	idx := r.bucketFor(t)
	r.buckets[idx] = append(r.buckets[idx], slot)
	r.occ[idx>>6] |= 1 << (uint(idx) & 63)
	r.count++
}

// nextOccupied returns the first non-empty bucket index at or after from.
// The caller guarantees one exists (count > 0 and occupancy is cleared
// only at drain).
func (r *rung) nextOccupied(from int) int {
	w := from >> 6
	mask := r.occ[w] &^ ((1 << (uint(from) & 63)) - 1)
	for {
		if mask != 0 {
			return w<<6 + bits.TrailingZeros64(mask)
		}
		w++
		mask = r.occ[w]
	}
}

// entry is one bottom event: its record's slot beside the (time, seq)
// key it sorts by.
type entry struct {
	t    Time
	seq  uint64
	slot int32
}

// before reports whether a pops ahead of b.
func (a *entry) before(b *entry) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// ladder is the calendar structure. Its zero value is an empty calendar
// accepting events at any time ≥ 0 (topStart starts at -Inf via the
// lazy init in insert, so the first epoch routes everything to top).
type ladder struct {
	bottom     []entry
	bottomHead int

	rungs  [maxRungs]rung
	nrungs int

	top      []int32
	topStart Time // events at or beyond this go to top
	topMin   Time
	topMax   Time

	inited bool
}

func (q *ladder) init() {
	q.topStart = math.Inf(-1)
	q.topMin = math.Inf(1)
	q.topMax = math.Inf(-1)
	q.inited = true
}

// insert files slot (scheduled at t) into the structure.
//
// Ownership is decided top-down: rung i+1 subdivides a bucket rung i has
// already drained past, so an event belongs to the shallowest rung whose
// undrained region still contains it (computed f = (t-start)/width at or
// beyond the drain frontier cur), and to a deeper rung — ultimately
// bottom — only once every shallower rung has disclaimed it. All
// comparisons use the same f expression as bucket placement, and f is a
// monotone function of t (subtract-then-multiply by a positive constant
// rounds monotonically), so boundary rounding can shift which bucket a
// time lands in but can never reorder two times across buckets.
func (q *ladder) insert(s *Simulator, slot int32, t Time) {
	if !q.inited {
		q.init()
	}
	if t >= q.topStart {
		q.top = append(q.top, slot)
		if t < q.topMin {
			q.topMin = t
		}
		if t > q.topMax {
			q.topMax = t
		}
		return
	}
	for i := 0; i < q.nrungs; i++ {
		r := &q.rungs[i]
		if r.cur >= nBuckets {
			continue // fully drained; owned by a deeper rung or bottom
		}
		if (t-r.start)*r.inv >= float64(r.cur) {
			// In the undrained region. f beyond the last bucket happens
			// only by rounding against the rung-end boundary (t < topStart
			// or inside a disclaiming parent); bucketFor clamps it into
			// the last bucket, which sorts correctly at drain.
			r.place(slot, t)
			return
		}
	}
	// Every rung disclaimed it: it belongs among the already-cut near
	// events, in exact (time, seq) position within the undrained tail.
	q.insertBottom(entry{t: t, seq: s.recs[slot].seq, slot: slot})
}

// insertBottom splices e into the undrained portion of bottom at its
// exact (time, seq) position. Inserts cluster just past bottomHead, so
// it gallops from there (probing +0, +1, +3, +7, …) and binary-searches
// only the bracket the gallop finds.
func (q *ladder) insertBottom(e entry) {
	b, head := q.bottom, q.bottomHead
	lo, hi := head, len(b)
	for off := 0; head+off < len(b); off = 2*off + 1 {
		if !b[head+off].before(&e) {
			hi = head + off
			break
		}
		lo = head + off + 1
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].before(&e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if head > 0 && lo-head < len(b)-lo {
		// Fewer entries precede e than follow it: move those one slot
		// toward the head, into the drained slot before bottomHead.
		copy(b[head-1:], b[head:lo])
		b[lo-1] = e
		q.bottomHead--
		return
	}
	q.bottom = append(b, entry{})
	copy(q.bottom[lo+1:], q.bottom[lo:])
	q.bottom[lo] = e
}

// peek returns the earliest pending event's time without consuming it.
// Cancelled events encountered at the head are reclaimed on the way.
func (q *ladder) peek(s *Simulator) (Time, bool) {
	if _, ok := q.front(s); !ok {
		return 0, false
	}
	return q.bottom[q.bottomHead].t, true
}

// pop removes and returns the earliest pending event's slot.
func (q *ladder) pop(s *Simulator) (int32, bool) {
	slot, ok := q.front(s)
	if !ok {
		return 0, false
	}
	q.bottomHead++
	return slot, true
}

// front positions bottomHead on the earliest pending event and returns
// its slot, refilling bottom from the rungs/top as needed and discarding
// cancelled records it passes.
func (q *ladder) front(s *Simulator) (int32, bool) {
	for {
		for q.bottomHead < len(q.bottom) {
			slot := q.bottom[q.bottomHead].slot
			if s.recs[slot].state == statePending {
				return slot, true
			}
			s.freeSlot(slot) // cancelled: reclaim lazily at the drain point
			q.bottomHead++
		}
		if !q.refill(s) {
			return 0, false
		}
	}
}

// refill loads the next batch of events into bottom. It returns false
// when the whole calendar is empty.
func (q *ladder) refill(s *Simulator) bool {
	q.bottom = q.bottom[:0]
	q.bottomHead = 0
	for {
		// Deepest rung first: it subdivides the earliest pending span.
		if q.nrungs > 0 {
			r := &q.rungs[q.nrungs-1]
			if r.count == 0 {
				q.nrungs--
				continue
			}
			idx := r.nextOccupied(r.cur)
			b := r.buckets[idx]
			r.buckets[idx] = b[:0]
			r.occ[idx>>6] &^= 1 << (uint(idx) & 63)
			r.count -= len(b)
			r.cur = idx + 1

			// Compact cancelled slots out in place; the survivors are
			// copied onward (to a child rung or into bottom) before this
			// bucket could ever be appended to again.
			k := 0
			for _, slot := range b {
				if s.recs[slot].state == statePending {
					b[k] = slot
					k++
				} else {
					s.freeSlot(slot)
				}
			}
			b = b[:k]
			if k == 0 {
				continue
			}
			if k > spawnAbove && q.nrungs < maxRungs {
				bs := r.start + r.width*float64(idx)
				if q.spawn(s, bs, r.width, b) {
					continue
				}
			}
			q.fillBottom(s, b)
			return true
		}
		if len(q.top) > 0 {
			if q.transferTop(s) {
				return true // top was small/degenerate and went straight to bottom
			}
			continue // top became rung 0; drain it on the next pass
		}
		// Truly empty: reset the epoch so the next insert starts fresh.
		q.init()
		return false
	}
}

// fillBottom loads the pending slots into the empty bottom, each beside
// its key, and sorts them. The records were just read for their state,
// so copying the keys out costs no further misses.
func (q *ladder) fillBottom(s *Simulator, slots []int32) {
	if q.bottom == nil {
		// One allocation holds a bucket and the inserts that follow it;
		// growing 24-byte entries from empty would take seven.
		q.bottom = make([]entry, 0, 2*spawnAbove)
	}
	for _, slot := range slots {
		r := &s.recs[slot]
		q.bottom = append(q.bottom, entry{t: r.time, seq: r.seq, slot: slot})
	}
	sortEntries(q.bottom)
}

// spawn subdivides a large bucket spanning [start, start+span) into a new
// deepest rung. It refuses (returns false) when the span can no longer be
// subdivided in float64 — equal or near-equal timestamps — in which case
// the caller sorts instead.
func (q *ladder) spawn(s *Simulator, start Time, span Time, slots []int32) bool {
	w := span / nBuckets
	if !(w > 0) || math.IsInf(w, 1) || start+w <= start {
		return false
	}
	r := &q.rungs[q.nrungs]
	r.reset(start, span)
	q.nrungs++
	for _, slot := range slots {
		r.place(slot, s.recs[slot].time)
	}
	return true
}

// transferTop cuts top down into the ladder when everything nearer has
// drained. Large tops with a usable span become rung 0 (sorted lazily,
// bucket by bucket); small or degenerate ones (all-equal timestamps,
// infinite span) are sorted straight into bottom, in which case it
// returns true.
func (q *ladder) transferTop(s *Simulator) bool {
	// Compact cancelled entries first so sizing reflects live events.
	k := 0
	for _, slot := range q.top {
		if s.recs[slot].state == statePending {
			q.top[k] = slot
			k++
		} else {
			s.freeSlot(slot)
		}
	}
	q.top = q.top[:k]
	if k == 0 {
		q.topStart = math.Inf(-1)
		q.topMin = math.Inf(1)
		q.topMax = math.Inf(-1)
		return false
	}
	span := q.topMax - q.topMin
	if k > topSpawnMin && span > 0 && !math.IsInf(span, 1) && q.topMin+span/nBuckets > q.topMin {
		// Rung 0 covers [topMin, topMax] — widen by one ulp so topMax
		// itself falls inside the half-open span.
		end := math.Nextafter(q.topMax, math.Inf(1))
		r := &q.rungs[0]
		r.reset(q.topMin, end-q.topMin)
		q.nrungs = 1
		for _, slot := range q.top {
			r.place(slot, s.recs[slot].time)
		}
		q.topStart = r.end()
	} else {
		q.fillBottom(s, q.top)
		// Everything scheduled from now on at or before topMax must sort
		// into bottom against these events, so push the boundary past it.
		q.topStart = math.Nextafter(q.topMax, math.Inf(1))
	}
	q.top = q.top[:0]
	q.topMin = math.Inf(1)
	q.topMax = math.Inf(-1)
	return q.nrungs == 0
}

// sortEntries orders bottom entries by (time, seq): insertion sort for
// small runs, median-of-three quicksort above that. Keys are unique (seq
// is), so there are no equal elements to worry quicksort's partition.
func sortEntries(b []entry) {
	for len(b) > smallSortN {
		// Median-of-three pivot, stored at b[0].
		m := len(b) / 2
		hi := len(b) - 1
		if b[m].before(&b[0]) {
			b[m], b[0] = b[0], b[m]
		}
		if b[hi].before(&b[0]) {
			b[hi], b[0] = b[0], b[hi]
		}
		if b[hi].before(&b[m]) {
			b[hi], b[m] = b[m], b[hi]
		}
		pivot := b[m]
		i, j := 0, hi
		for i <= j {
			for b[i].before(&pivot) {
				i++
			}
			for pivot.before(&b[j]) {
				j--
			}
			if i <= j {
				b[i], b[j] = b[j], b[i]
				i++
				j--
			}
		}
		// Recurse into the smaller side, loop on the larger: O(log n) stack.
		if j+1 < len(b)-i {
			sortEntries(b[:j+1])
			b = b[i:]
		} else {
			sortEntries(b[i:])
			b = b[:j+1]
		}
	}
	for i := 1; i < len(b); i++ {
		v := b[i]
		j := i - 1
		for j >= 0 && v.before(&b[j]) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = v
	}
}
