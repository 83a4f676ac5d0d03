package shard

import (
	"fmt"
	"slices"
)

// table is the shard-local task ledger: an open-addressing hash table
// (linear probing, backward-shift deletion) over parallel stride arrays
// instead of the per-stage map ledgers of internal/core. One admitted
// request is one row holding its absolute deadline, quality level, and
// per-stage contributions plus departed/cleared bitmaps — so an admit
// is a single probe + row write where per-stage map ledgers pay one map
// insert per stage, and a release is a single probe + backward shift
// where they pay one map delete per stage. Rows are pointer-free; the
// GC never scans them.
//
// Stage-level semantics mirror core.Ledger: a contribution can be
// cleared at one stage (idle reset) while still charged at others. A
// cleared stage has contribution 0 and its cleared bit set; the row's
// liveN counts stages not yet cleared. A fully-cleared row lingers
// until its deadline expiry removes it, and an insert that finds a
// lingering fully-cleared row for a reused id recycles it in place.
//
// Per stage, the table also keeps what core.Ledger keeps: how many rows
// still charge the stage (nlive, which drives the exact rebaseline) and
// the departed list the idle reset drains (dep, pending).
type table struct {
	stages int
	words  int    // bitmap words per row: ceil(stages/64)
	mask   uint64 // len(keys)-1; len is a power of two
	live   int    // occupied rows (including fully-cleared lingerers)

	nlive []int // per stage: rows still charging it
	// dep[j] lists the IDs whose departed bit at stage j went 0→1 since
	// stage j's last idle reset. It is append-only: an entry goes stale
	// when its row is deleted, recycled, or cleared, and the drain skips
	// stale and duplicate IDs. pending[j] counts the rows whose departed
	// bit at j is set; every one of them is listed in dep[j].
	dep     [][]uint64
	pending []int

	keys     []uint64  // id+1; 0 marks an empty slot
	ats      []int64   // absolute deadline (UnixNano)
	levels   []uint8   // quality level charged (task.QualityLevels = full)
	liveN    []uint16  // stages not yet cleared
	contribs []float64 // stride stages: charged synthetic utilization
	departed []uint64  // stride words: stage departed bits
	cleared  []uint64  // stride words: stage cleared bits
}

const minTableSize = 16

// compactMin is the departed-list length below which compaction is not
// worth a sort (core.Ledger's threshold).
const compactMin = 64

func newTable(stages int) table {
	t := table{
		stages:  stages,
		words:   (stages + 63) / 64,
		nlive:   make([]int, stages),
		dep:     make([][]uint64, stages),
		pending: make([]int, stages),
	}
	t.alloc(minTableSize)
	return t
}

func (t *table) alloc(n int) {
	t.mask = uint64(n - 1)
	t.keys = make([]uint64, n)
	t.ats = make([]int64, n)
	t.levels = make([]uint8, n)
	t.liveN = make([]uint16, n)
	t.contribs = make([]float64, n*t.stages)
	t.departed = make([]uint64, n*t.words)
	t.cleared = make([]uint64, n*t.words)
}

// hashMul is the 64-bit golden-ratio multiplier (Fibonacci hashing).
const hashMul = 0x9E3779B97F4A7C15

func (t *table) home(id uint64) uint64 { return (id * hashMul) & t.mask }

// lookup returns the slot holding id and whether it exists (live or
// lingering fully-cleared).
func (t *table) lookup(id uint64) (int, bool) {
	i := t.home(id)
	for {
		k := t.keys[i]
		if k == 0 {
			return 0, false
		}
		if k == id+1 {
			return int(i), true
		}
		i = (i + 1) & t.mask
	}
}

// insert claims a row for id and resets its bookkeeping (deadline,
// level, bitmaps); the caller fills contribs[slot*stages:...] after.
// A lingering fully-cleared row for the same id is recycled in place
// (its stale wheel entry is disambiguated by deadline at flush time);
// a live duplicate is a programming error, like core.Ledger.Add.
func (t *table) insert(id uint64, at int64, level uint8) int {
	if t.live*4 >= len(t.keys)*3 {
		t.grow()
	}
	i := t.home(id)
	for {
		k := t.keys[i]
		if k == 0 {
			break
		}
		if k == id+1 {
			if t.liveN[i] != 0 {
				panic(fmt.Sprintf("shard: request %d admitted twice", id))
			}
			t.reset(int(i), at, level) // recycle the lingering row
			return int(i)
		}
		i = (i + 1) & t.mask
	}
	t.keys[i] = id + 1
	t.live++
	t.reset(int(i), at, level)
	return int(i)
}

// reset readies a new or fully-cleared row: it charges every stage again.
func (t *table) reset(slot int, at int64, level uint8) {
	for j := range t.nlive {
		t.nlive[j]++
	}
	t.ats[slot] = at
	t.levels[slot] = level
	t.liveN[slot] = uint16(t.stages)
	for w := 0; w < t.words; w++ {
		t.departed[slot*t.words+w] = 0
		t.cleared[slot*t.words+w] = 0
	}
	// contribs are NOT zeroed: every insert is immediately followed by
	// commitLocked writing all stages, so the stores would be dead.
}

func (t *table) grow() {
	ok, oa, olv, oln := t.keys, t.ats, t.levels, t.liveN
	oc, od, ocl := t.contribs, t.departed, t.cleared
	t.alloc(len(ok) * 2)
	t.live = 0
	for i, k := range ok {
		if k == 0 {
			continue
		}
		j := t.home(k - 1)
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.ats[j] = oa[i]
		t.levels[j] = olv[i]
		t.liveN[j] = oln[i]
		copy(t.contribs[int(j)*t.stages:(int(j)+1)*t.stages], oc[i*t.stages:(i+1)*t.stages])
		copy(t.departed[int(j)*t.words:(int(j)+1)*t.words], od[i*t.words:(i+1)*t.words])
		copy(t.cleared[int(j)*t.words:(int(j)+1)*t.words], ocl[i*t.words:(i+1)*t.words])
		t.live++
	}
}

// delete removes the row by backward-shift: the probe cluster after the
// slot is compacted so lookups never need tombstones. The caller must
// have dropped every stage the row still charges first.
func (t *table) delete(slot int) {
	i := uint64(slot)
	t.keys[i] = 0
	t.live--
	j := (i + 1) & t.mask
	for t.keys[j] != 0 {
		home := t.home(t.keys[j] - 1)
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.moveRow(int(i), int(j))
			t.keys[j] = 0
			i = j
		}
		j = (j + 1) & t.mask
	}
}

func (t *table) moveRow(dst, src int) {
	t.keys[dst] = t.keys[src]
	t.ats[dst] = t.ats[src]
	t.levels[dst] = t.levels[src]
	t.liveN[dst] = t.liveN[src]
	copy(t.contribs[dst*t.stages:(dst+1)*t.stages], t.contribs[src*t.stages:(src+1)*t.stages])
	copy(t.departed[dst*t.words:(dst+1)*t.words], t.departed[src*t.words:(src+1)*t.words])
	copy(t.cleared[dst*t.words:(dst+1)*t.words], t.cleared[src*t.words:(src+1)*t.words])
}

// presentAt reports whether the row still charges stage j (not cleared
// by an idle reset).
func (t *table) presentAt(slot, j int) bool {
	return t.cleared[slot*t.words+j>>6]&(1<<(uint(j)&63)) == 0
}

func (t *table) departedAt(slot, j int) bool {
	return t.departed[slot*t.words+j>>6]&(1<<(uint(j)&63)) != 0
}

// markDeparted flags the row (which must still charge stage j) as
// departed at j and lists id for the stage's next idle reset; a row
// already flagged is left alone. When stale entries make up half the
// list — a stage that never idles sees its departed rows expire
// instead — the list is compacted before it grows.
func (t *table) markDeparted(slot, j int, id uint64) {
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

// sortDeparted sorts stage j's departed list in place and returns it.
// The idle reset drains it in this ascending-ID order: the shard sums
// are Kahan-compensated, so a fixed order keeps them bit-identical to
// core.Ledger's drain.
func (t *table) sortDeparted(j int) []uint64 {
	slices.Sort(t.dep[j])
	return t.dep[j]
}

// flagged resolves entry i of a sorted departed list for stage j to the
// row it names, reporting false for a duplicate of entry i-1 or a stale
// entry (row gone, recycled, or already cleared at j).
func (t *table) flagged(ids []uint64, i, j int) (int, bool) {
	if i > 0 && ids[i] == ids[i-1] {
		return 0, false
	}
	slot, ok := t.lookup(ids[i])
	if !ok || !t.departedAt(slot, j) {
		return 0, false
	}
	return slot, true
}

// dropStage removes the row's charge at stage j from the per-stage
// counts (its departed-list entry, if any, goes stale) and returns how
// many rows still charge the stage.
func (t *table) dropStage(slot, j int) int {
	if t.departedAt(slot, j) {
		t.pending[j]--
	}
	t.nlive[j]--
	return t.nlive[j]
}

// clearStage is dropStage for a row that stays in the table (idle
// reset): stage j's charge is zeroed and marked cleared.
func (t *table) clearStage(slot, j int) int {
	left := t.dropStage(slot, j)
	t.contribs[slot*t.stages+j] = 0
	t.cleared[slot*t.words+j>>6] |= 1 << (uint(j) & 63)
	t.departed[slot*t.words+j>>6] &^= 1 << (uint(j) & 63)
	t.liveN[slot]--
	return left
}
