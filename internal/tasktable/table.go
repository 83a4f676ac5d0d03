// Package tasktable is the region state every admission plane keeps:
// per-stage synthetic utilization U_j = reserved_j + Σ_i C_ij/D_i over
// the tasks still charging stage j. core.Controller (simulated time,
// also under core.GraphController), online.Controller (wall clock) and
// the split-deadline baseline each hold one State.
//
// A State owns the rows, one exact sum per stage and the stages'
// reserved floors. It is clock-free and lock-free: the owning
// driver keeps the clock, schedules expiry, serializes access, and
// computes each admission's contribution vector (estimator, scales,
// quality level) before handing it over.
//
// Sums are exact: every contribution is charged as a whole number of
// quanta of 2^-40, rounded up, so the charged point never sits below
// the true one, and no add or subtract rounds, so a sum is the same in
// any order. A State's utilizations therefore equal those of a set of
// oracle.Ledgers fed the same operations, whatever order either applies
// them in.
//
// The rows live in a Table, an open-addressing hash table (linear
// probing, backward-shift deletion, full uint64 key range) over
// parallel pointer-free stride arrays. One admitted task is one row: an
// opaque stamp, a quality level, and per stage the contribution and a
// tag. An admit is one probe and row write, a release one probe and
// backward shift.
//
// An idle reset clears a row at one stage while other stages still
// charge it. It costs O(1) whatever departed: each stage keeps an epoch
// and the count and charges of the rows departed since its last reset,
// and a row's tag at the stage says where it stands against that epoch
// (see State). A row cleared at every stage lingers until its owner
// drops it at its deadline; inserting its ID again recycles it in place
// under the new stamp, and the stamp lets an owner's expiry tell its
// own admission from a later one.
package tasktable

// Table stores one row per admitted task: the row store of a State.
type Table struct {
	stages int
	mask   uint64 // len(keys)-1; len is a power of two
	live   int    // occupied rows (including fully-cleared lingerers)
	spill  bool   // the spill row (key MaxID) is occupied

	// keys holds id+1 per probe slot, 0 marking an empty one. MaxID,
	// whose id+1 wraps to 0, lives in the spill row at index len(keys).
	keys     []uint64
	stamps   []int64   // opaque per-row stamp set at insert
	levels   []uint8   // quality level charged
	contribs []float64 // stride stages: charged contribution
	tags     []uint64  // stride stages: the row's standing (State)
}

// MaxID is the largest key, stored outside the probe array.
const MaxID = ^uint64(0)

const minSize = 16

// newTable returns an empty table.
func newTable(stages int) Table {
	t := Table{stages: stages}
	t.alloc(minSize)
	return t
}

// alloc sizes the columns for n probe slots plus the spill row.
func (t *Table) alloc(n int) {
	t.mask = uint64(n - 1)
	t.keys = make([]uint64, n)
	t.stamps = make([]int64, n+1)
	t.levels = make([]uint8, n+1)
	t.contribs = make([]float64, (n+1)*t.stages)
	t.tags = make([]uint64, (n+1)*t.stages)
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

// insert claims a row for id and returns its slot, reporting whether
// id already had one (the caller checks that it charges nothing before
// recycling it). The caller writes every column of the row next.
func (t *Table) insert(id uint64) (slot int, found bool) {
	if t.live*4 >= len(t.keys)*3 {
		t.grow()
	}
	slot, found = t.Lookup(id)
	switch {
	case found:
	case slot == len(t.keys):
		t.spill = true
		t.live++
	default:
		t.keys[slot] = id + 1
		t.live++
	}
	return slot, found
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
	copy(t.contribs[dst*t.stages:(dst+1)*t.stages], from.contribs[src*t.stages:(src+1)*t.stages])
	copy(t.tags[dst*t.stages:(dst+1)*t.stages], from.tags[src*t.stages:(src+1)*t.stages])
}

// deleteRow removes the row by backward shift (so lookups need no
// tombstones; other rows may move).
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

// at returns the index of the row's stage-j entry in the stride columns.
func (t *Table) at(slot, j int) int { return slot*t.stages + j }
