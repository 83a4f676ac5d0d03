// Package tasktable is the region state every admission plane keeps:
// per-stage synthetic utilization U_j = reserved_j + Σ_i C_ij/D_i over
// the tasks still charging stage j. core.Controller (simulated time),
// online.Controller (wall clock), core.GraphController and the
// split-deadline baseline all hold one State.
//
// A State owns the rows, one Kahan-compensated sum per stage and the
// stages' reserved floors. It is clock-free and lock-free: the owning
// driver keeps the clock, schedules expiry, serializes access, and
// computes each admission's contribution vector (estimator, scales,
// quality level) before handing it over. Every add, subtract and
// rebaseline happens in oracle.Ledger's order, so a State's utilizations
// are bit-identical to a set of oracle.Ledgers fed the same operations.
//
// The rows live in a Table, an open-addressing hash table (linear
// probing, backward-shift deletion, full uint64 key range) over
// parallel pointer-free stride arrays. One admitted task is one row: an
// opaque stamp, a quality level, per-stage contributions, and
// departed/cleared bitmaps. An admit is one probe and row write, a
// release one probe and backward shift.
//
// An idle reset clears a row at one stage (contribution 0, cleared bit
// set) while other stages still charge it. A fully-cleared row lingers
// until its owner drops it at its deadline; inserting its ID again
// recycles it in place under the new stamp, and the stamp lets an
// owner's expiry tell its own admission from a later one. Per stage the
// table counts the rows still charging it (the sum is rebaselined to
// exactly 0 when the count reaches 0) and keeps the departed list the
// idle reset drains in ascending-ID order (in list order when the reset
// empties the stage).
package tasktable

import (
	"fmt"
	"slices"
)

// Table stores one row per admitted task: the row store of a State.
type Table struct {
	stages int
	words  int    // bitmap words per row: ceil(stages/64)
	mask   uint64 // len(keys)-1; len is a power of two
	live   int    // occupied rows (including fully-cleared lingerers)
	spill  bool   // the spill row (key MaxID) is occupied

	nlive []int // per stage: rows still charging it
	// dep[j] appends each ID whose departed bit at j goes 0→1; entries go
	// stale (row deleted, recycled, or cleared) and the drain skips them
	// and duplicates. pending[j] counts the rows flagged at j.
	dep     [][]uint64
	pending []int

	// keys holds id+1 per probe slot, 0 marking an empty one. MaxID,
	// whose id+1 wraps to 0, lives in the spill row at index len(keys).
	keys     []uint64
	stamps   []int64   // opaque per-row stamp set at insert
	levels   []uint8   // quality level charged
	liveN    []uint16  // stages not yet cleared
	contribs []float64 // stride stages: charged contribution
	departed []uint64  // stride words: stage departed bits
	cleared  []uint64  // stride words: stage cleared bits
}

// MaxID is the largest key, stored outside the probe array.
const MaxID = ^uint64(0)

const minSize = 16

// compactMin is the departed-list length below which compaction is not
// worth a sort (oracle.Ledger's threshold).
const compactMin = 64

// newTable returns an empty table for up to 65535 stages.
func newTable(stages int) Table {
	t := Table{
		stages:  stages,
		words:   (stages + 63) / 64,
		nlive:   make([]int, stages),
		dep:     make([][]uint64, stages),
		pending: make([]int, stages),
	}
	t.alloc(minSize)
	return t
}

// alloc sizes the columns for n probe slots plus the spill row.
func (t *Table) alloc(n int) {
	t.mask = uint64(n - 1)
	t.keys = make([]uint64, n)
	t.stamps = make([]int64, n+1)
	t.levels = make([]uint8, n+1)
	t.liveN = make([]uint16, n+1)
	t.contribs = make([]float64, (n+1)*t.stages)
	t.departed = make([]uint64, (n+1)*t.words)
	t.cleared = make([]uint64, (n+1)*t.words)
}

// hashMul is the 64-bit golden-ratio multiplier (Fibonacci hashing).
const hashMul = 0x9E3779B97F4A7C15

func (t *Table) home(id uint64) uint64 { return (id * hashMul) & t.mask }

// Len returns the number of rows held, fully-cleared lingerers included.
func (t *Table) Len() int { return t.live }

// Lookup returns the slot holding id and whether it exists (live or
// lingering fully-cleared). On a miss the slot is where id would go.
func (t *Table) Lookup(id uint64) (int, bool) {
	i := t.home(id)
	for {
		switch k := t.keys[i]; {
		case k == 0 && id == MaxID: // only on a miss: hits pay nothing
			return len(t.keys), t.spill
		case k == 0 || k == id+1:
			return int(i), k != 0
		}
		i = (i + 1) & t.mask
	}
}

// insert claims a row charging every stage and returns its slot for the
// caller's setContrib calls. A fully-cleared row for id is recycled in
// place; inserting an id whose row still charges a stage panics.
func (t *Table) insert(id uint64, stamp int64, level uint8) int {
	if t.live*4 >= len(t.keys)*3 {
		t.grow()
	}
	slot, found := t.Lookup(id)
	switch {
	case found && t.liveN[slot] != 0:
		panic(fmt.Sprintf("tasktable: id %d inserted twice", id))
	case !found && slot == len(t.keys):
		t.spill = true
		t.live++
	case !found:
		t.keys[slot] = id + 1
		t.live++
	}
	t.reset(slot, stamp, level)
	return slot
}

// reset readies a new or fully-cleared row: it charges every stage again.
func (t *Table) reset(slot int, stamp int64, level uint8) {
	for j := range t.nlive {
		t.nlive[j]++
	}
	t.stamps[slot] = stamp
	t.levels[slot] = level
	t.liveN[slot] = uint16(t.stages)
	for w := 0; w < t.words; w++ {
		t.departed[slot*t.words+w] = 0
		t.cleared[slot*t.words+w] = 0
	}
	// contribs are not zeroed: the caller writes every stage next.
}

func (t *Table) grow() {
	old := *t
	t.alloc(len(old.keys) * 2)
	for i, k := range old.keys {
		if k != 0 {
			j := t.home(k - 1)
			for t.keys[j] != 0 {
				j = (j + 1) & t.mask
			}
			t.keys[j] = k
			t.copyRow(int(j), &old, i)
		}
	}
	if t.spill {
		t.copyRow(len(t.keys), &old, len(old.keys))
	}
}

// copyRow copies every column but the key of src's row from into row dst.
func (t *Table) copyRow(dst int, from *Table, src int) {
	t.stamps[dst] = from.stamps[src]
	t.levels[dst] = from.levels[src]
	t.liveN[dst] = from.liveN[src]
	copy(t.contribs[dst*t.stages:(dst+1)*t.stages], from.contribs[src*t.stages:(src+1)*t.stages])
	copy(t.departed[dst*t.words:(dst+1)*t.words], from.departed[src*t.words:(src+1)*t.words])
	copy(t.cleared[dst*t.words:(dst+1)*t.words], from.cleared[src*t.words:(src+1)*t.words])
}

// deleteRow removes the row by backward shift (so lookups need no
// tombstones; other rows may move). The caller first drops every stage
// the row still charges (dropStage).
func (t *Table) deleteRow(slot int) {
	t.live--
	if slot == len(t.keys) {
		t.spill = false
		return
	}
	i := uint64(slot)
	t.keys[i] = 0
	j := (i + 1) & t.mask
	for t.keys[j] != 0 {
		home := t.home(t.keys[j] - 1)
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.keys[i] = t.keys[j]
			t.copyRow(int(i), t, int(j))
			t.keys[j] = 0
			i = j
		}
		j = (j + 1) & t.mask
	}
}

// Stamp returns the stamp the row was last inserted with.
func (t *Table) Stamp(slot int) int64 { return t.stamps[slot] }

// Level returns the row's quality level.
func (t *Table) Level(slot int) uint8 { return t.levels[slot] }

// SetLevel records a new quality level for the row.
func (t *Table) SetLevel(slot int, level uint8) { t.levels[slot] = level }

// Contrib returns the row's contribution at stage j (0 once cleared).
func (t *Table) Contrib(slot, j int) float64 { return t.contribs[slot*t.stages+j] }

// setContrib writes the row's contribution at stage j.
func (t *Table) setContrib(slot, j int, v float64) { t.contribs[slot*t.stages+j] = v }

// Live reports whether the row still charges at least one stage.
func (t *Table) Live(slot int) bool { return t.liveN[slot] != 0 }

// Present reports whether the row still charges stage j (not cleared
// by an idle reset).
func (t *Table) Present(slot, j int) bool {
	return t.cleared[slot*t.words+j>>6]&(1<<(uint(j)&63)) == 0
}

func (t *Table) departedAt(slot, j int) bool {
	return t.departed[slot*t.words+j>>6]&(1<<(uint(j)&63)) != 0
}

// Charging returns how many rows still charge stage j.
func (t *Table) Charging(j int) int { return t.nlive[j] }

// MarkDeparted flags the row (which must still charge stage j) as
// departed at j and lists id for the stage's next idle reset. When stale
// entries make up half the list (a stage that never idles sees its
// departed rows expire instead), it is compacted before it grows.
func (t *Table) MarkDeparted(slot, j int, id uint64) {
	if t.departedAt(slot, j) {
		return
	}
	t.departed[slot*t.words+j>>6] |= 1 << (uint(j) & 63)
	t.pending[j]++
	if n := len(t.dep[j]); n >= compactMin && n >= 2*t.pending[j] {
		ids := t.sortDeparted(j)
		live := ids[:0]
		for i, d := range ids {
			if _, ok := t.flagged(ids, i, j); ok {
				live = append(live, d)
			}
		}
		t.dep[j] = live
	}
	t.dep[j] = append(t.dep[j], id)
}

// sortDeparted sorts stage j's departed list in place and returns it:
// the idle reset drains in oracle.Ledger's ascending-ID order, keeping the
// State's Kahan sums bit-identical to a Ledger's.
func (t *Table) sortDeparted(j int) []uint64 {
	slices.Sort(t.dep[j])
	return t.dep[j]
}

// flagged resolves entry i of a sorted departed list for stage j to the
// row it names, reporting false for a duplicate of entry i-1 or a stale
// entry (row gone, recycled, or already cleared at j).
func (t *Table) flagged(ids []uint64, i, j int) (int, bool) {
	if i > 0 && ids[i] == ids[i-1] {
		return 0, false
	}
	slot, ok := t.Lookup(ids[i])
	if !ok || !t.departedAt(slot, j) {
		return 0, false
	}
	return slot, true
}

// dropStage removes the row's charge at stage j (which must be Present)
// from the per-stage counts and returns how many rows still charge the
// stage; the caller subtracts the contribution from its sum.
func (t *Table) dropStage(slot, j int) int {
	if t.departedAt(slot, j) {
		t.pending[j]--
	}
	t.nlive[j]--
	return t.nlive[j]
}

// resetIdle clears stage j from every row flagged departed there,
// subtracting each contribution from sum in ascending-ID order. It
// returns how many rows it cleared.
//
// When every row charging the stage is flagged, the stage empties and
// the last subtraction rebaselines sum to exactly 0 whatever the order,
// so the rows are cleared in list order, unsorted: a lookup miss skips
// a stale entry, and a cleared row's departed bit is off, which skips
// its duplicates.
func (t *Table) resetIdle(j int, sum *kahan) int {
	n := t.pending[j]
	switch {
	case n == 0:
		// only stale entries remain
	case n == t.nlive[j]:
		for _, id := range t.dep[j] {
			if slot, ok := t.Lookup(id); ok && t.departedAt(slot, j) {
				t.clearStage(slot, j, sum)
			}
		}
	default:
		ids := t.sortDeparted(j)
		for i := range ids {
			if slot, ok := t.flagged(ids, i, j); ok {
				t.clearStage(slot, j, sum)
			}
		}
	}
	t.dep[j] = t.dep[j][:0]
	return n
}

// clearStage is dropStage for a row that stays in the table (idle
// reset): stage j's charge is zeroed and marked cleared.
func (t *Table) clearStage(slot, j int, sum *kahan) {
	sum.sub(t.Contrib(slot, j), t.dropStage(slot, j))
	t.contribs[slot*t.stages+j] = 0
	t.cleared[slot*t.words+j>>6] |= 1 << (uint(j) & 63)
	t.departed[slot*t.words+j>>6] &^= 1 << (uint(j) & 63)
	t.liveN[slot]--
}
