package oracle

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"feasregion/internal/task"
)

// mapLedger is the ledger's earlier idle-reset bookkeeping, kept as the
// reference: a contribution map plus a departed set, drained in sorted
// ID order.
type mapLedger struct {
	sum, comp float64
	contrib   map[task.ID]float64
	departed  map[task.ID]struct{}
	resets    uint64
}

func newMapLedger() *mapLedger {
	return &mapLedger{contrib: map[task.ID]float64{}, departed: map[task.ID]struct{}{}}
}

func (l *mapLedger) add(v float64) {
	y := v - l.comp
	t := l.sum + y
	l.comp = (t - l.sum) - y
	l.sum = t
}

func (l *mapLedger) Add(id task.ID, c float64) {
	l.contrib[id] = c
	l.add(c)
}

func (l *mapLedger) Update(id task.ID, c float64) {
	if old, ok := l.contrib[id]; ok {
		l.contrib[id] = c
		l.add(c - old)
	}
}

func (l *mapLedger) Remove(id task.ID) {
	c, ok := l.contrib[id]
	if !ok {
		return
	}
	delete(l.contrib, id)
	delete(l.departed, id)
	l.add(-c)
	if len(l.contrib) == 0 {
		l.sum, l.comp = 0, 0
	}
}

func (l *mapLedger) MarkDeparted(id task.ID) {
	if _, ok := l.contrib[id]; ok {
		l.departed[id] = struct{}{}
	}
}

func (l *mapLedger) ResetIdle() int {
	if len(l.departed) == 0 {
		return 0
	}
	var ids []task.ID
	for id := range l.departed {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	n := 0
	for _, id := range ids {
		if c, ok := l.contrib[id]; ok {
			delete(l.contrib, id)
			l.add(-c)
			n++
		}
		delete(l.departed, id)
	}
	if len(l.contrib) == 0 {
		l.sum, l.comp = 0, 0
	}
	if n > 0 {
		l.resets++
	}
	return n
}

// TestLedgerDrainMatchesSortedMap drives the departed-list ledger and
// the sorted-map reference through random admissions, deadline
// removals, re-adds of removed IDs, duplicate and stale MarkDeparted
// calls, re-charges and idle resets, and requires bit-equal sum and
// compensation after every ResetIdle.
func TestLedgerDrainMatchesSortedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	got, want := NewLedger(0), newMapLedger()
	var ids []task.ID // every ID ever added, live or not
	next := task.ID(0)
	pick := func() task.ID {
		if len(ids) == 0 || rng.Intn(8) == 0 {
			return task.ID(rng.Intn(1 << 20)) // almost surely unknown
		}
		return ids[rng.Intn(len(ids))]
	}
	resets := 0
	for step := 0; step < 200000; step++ {
		switch op := rng.Intn(20); {
		case op < 6:
			id := next
			if len(ids) > 0 && rng.Intn(4) == 0 {
				id = ids[rng.Intn(len(ids))] // re-add a removed ID
				if _, live := want.contrib[id]; live {
					continue
				}
			} else {
				next++
				ids = append(ids, id)
			}
			c := rng.Float64() * 1e-2
			got.Add(id, c)
			want.Add(id, c)
		case op < 10: // deadline decrement
			id := pick()
			got.Remove(id)
			want.Remove(id)
		case op < 17: // departure, possibly duplicate or stale
			id := pick()
			got.MarkDeparted(id)
			want.MarkDeparted(id)
		case op < 18:
			id, c := pick(), rng.Float64()*1e-2
			got.Update(id, c)
			want.Update(id, c)
		default:
			if n, m := got.ResetIdle(), want.ResetIdle(); n != m {
				t.Fatalf("step %d: ResetIdle dropped %d, reference %d", step, n, m)
			}
			if math.Float64bits(got.sum) != math.Float64bits(want.sum) ||
				math.Float64bits(got.comp) != math.Float64bits(want.comp) {
				t.Fatalf("step %d: sum/comp %v/%v, reference %v/%v", step, got.sum, got.comp, want.sum, want.comp)
			}
			resets++
		}
		if got.ActiveTasks() != len(want.contrib) || got.pending != len(want.departed) {
			t.Fatalf("step %d: %d tasks, %d departed; reference %d, %d",
				step, got.ActiveTasks(), got.pending, len(want.contrib), len(want.departed))
		}
	}
	if got.Resets() != want.resets || resets < 1000 {
		t.Fatalf("resets %d, reference %d, after %d ResetIdle calls", got.Resets(), want.resets, resets)
	}
}

// TestLedgerDepartedListBounded runs a stage that never idles: every
// task departs and later expires at its deadline, so the departed list
// fills with stale IDs. Compaction must keep it within twice the
// largest number of tasks pending a reset at once.
func TestLedgerDepartedListBounded(t *testing.T) {
	l := NewLedger(0)
	const window = 40 // tasks departed but not yet expired
	for id := task.ID(0); id < 100000; id++ {
		l.Add(id, 1e-4)
		l.MarkDeparted(id)
		l.MarkDeparted(id) // duplicate: ignored
		if id >= window {
			l.Remove(id - window)
		}
		if limit := max(compactMin, 2*(window+1)); len(l.departed) > limit {
			t.Fatalf("after task %d: departed list holds %d IDs, limit %d", id, len(l.departed), limit)
		}
	}
	if n := l.ResetIdle(); n != window {
		t.Fatalf("ResetIdle dropped %d, want the %d unexpired departed tasks", n, window)
	}
	if l.Utilization() != 0 || len(l.departed) != 0 {
		t.Fatalf("after the reset: utilization %v, %d departed IDs", l.Utilization(), len(l.departed))
	}
}
