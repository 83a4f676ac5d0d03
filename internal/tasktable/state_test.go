package tasktable_test

import (
	"math"
	"slices"
	"testing"

	"feasregion/internal/task"
	"feasregion/internal/tasktable"
	"feasregion/internal/tasktable/oracle"
)

// ops reads an operation stream from fuzz bytes; past the end it reads
// zeros, so every input decodes to a finite, valid sequence.
type ops struct{ b []byte }

func (o *ops) next() byte {
	if len(o.b) == 0 {
		return 0
	}
	v := o.b[0]
	o.b = o.b[1:]
	return v
}

// id draws one of 16 IDs straddling zero, so keys cross the sign flip
// and are re-used often.
func (o *ops) id() task.ID { return task.ID(int8(o.next()<<4) >> 4) }

// value draws a contribution whose mantissa is not a whole number of
// quanta, so every charge rounds up. One in 256 is huge (+Inf among
// them): capped at maxContrib, it carries the stage sum past
// maxContrib.
func (o *ops) value() float64 {
	hi, lo := o.next(), o.next()
	switch {
	case hi < 0xFF:
		return float64(uint16(hi)<<8|uint16(lo)) / 65521 / 4
	case lo == 0xFF:
		return math.Inf(1)
	}
	return float64(lo) * 100
}

// checkStateMatchesLedgers replays data against a State and one
// oracle.Ledger per stage and requires every stage's utilization to be
// equal, with equal charging counts, after every operation. The
// first byte picks 1-3 stages; each following op byte picks insert,
// recharge, ClearStage, MarkDeparted (of any row, charging the stage
// or not), a partial or an all-departed idle reset, drop, or a floor
// change. Inserting an ID whose row was cleared at every stage by idle
// resets recycles the lingering row, the ID reuse the controllers'
// stamps guard.
func checkStateMatchesLedgers(t *testing.T, data []byte) {
	o := &ops{b: data}
	stages := 1 + int(o.next()%3)
	st := tasktable.NewState(stages, nil)
	ref := make([]*oracle.Ledger, stages)
	for j := range ref {
		ref[j] = oracle.NewLedger(0)
	}
	key := func(id task.ID) uint64 { return uint64(id) }
	present := func(id task.ID, j int) (int, bool) {
		slot, ok := st.Lookup(key(id))
		return slot, ok && st.Present(slot, j)
	}
	d := make([]float64, stages)
	var stamp int64
	for step := 0; len(o.b) > 0; step++ {
		op := o.next() % 8
		j := int(o.next()) % stages
		id := o.id()
		switch op {
		case 0: // insert, unless some stage still charges id
			if slot, ok := st.Lookup(key(id)); ok && st.Live(slot) {
				continue
			}
			for k := range d {
				d[k] = o.value()
				ref[k].Add(id, d[k])
			}
			stamp++
			st.Insert(key(id), stamp, task.QualityLevels, d)
		case 1: // recharge
			v := o.value()
			slot, ok := present(id, j)
			if ok {
				st.Recharge(slot, j, v)
			}
			if ref[j].Update(id, v) != ok {
				t.Fatalf("step %d: recharge of %d at stage %d: state present %v, ledger not", step, id, j, ok)
			}
		case 2: // a per-stage deadline
			slot, ok := present(id, j)
			if ok {
				st.ClearStage(slot, j)
			}
			if ref[j].Remove(id) != ok {
				t.Fatalf("step %d: clear of %d at stage %d: state present %v, ledger not", step, id, j, ok)
			}
		case 3: // a no-op on a row cleared at j
			if slot, ok := st.Lookup(key(id)); ok {
				st.MarkDeparted(slot, j)
			}
			ref[j].MarkDeparted(id)
		case 4: // partial idle reset: whatever departed so far
			if got, want := st.ResetIdle(j), ref[j].ResetIdle(); got != want {
				t.Fatalf("step %d: idle reset of stage %d cleared %d rows, ledger %d", step, j, got, want)
			}
		case 5: // every charging row departs, then the stage idles
			ids := ref[j].TaskIDs()
			slices.Sort(ids)
			for _, id := range ids {
				slot, ok := present(id, j)
				if !ok {
					t.Fatalf("step %d: ledger %d charges %d, state does not", step, j, id)
				}
				st.MarkDeparted(slot, j)
				ref[j].MarkDeparted(id)
			}
			if got, want := st.ResetIdle(j), ref[j].ResetIdle(); got != want || st.Charging(j) != 0 {
				t.Fatalf("step %d: emptying idle reset of stage %d cleared %d rows (%d left), ledger %d",
					step, j, got, st.Charging(j), want)
			}
		case 6: // the end-to-end deadline: drop the row wherever it charges
			if slot, ok := st.Lookup(key(id)); ok {
				st.Drop(slot)
			}
			for _, l := range ref {
				l.Remove(id)
			}
		case 7:
			v := float64(o.next()) / 1024
			st.SetFloor(j, v)
			ref[j].SetReserved(v)
		}
		for k, l := range ref {
			if got, want := st.Util(k), l.Utilization(); got != want {
				t.Fatalf("step %d (op %d): stage %d utilization %v, ledger %v", step, op, k, got, want)
			}
			if got, want := st.Charging(k), l.ActiveTasks(); got != want {
				t.Fatalf("step %d (op %d): stage %d charged by %d rows, ledger %d", step, op, k, got, want)
			}
		}
	}
}

// TestStateMatchesLedgers runs the differential harness over random
// operation streams.
func TestStateMatchesLedgers(t *testing.T) {
	seed := uint64(0x9E3779B97F4A7C15)
	for run := 0; run < 200; run++ {
		data := make([]byte, 1200)
		for i := range data {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			data[i] = byte(seed)
		}
		checkStateMatchesLedgers(t, data)
	}
}

// FuzzStateMatchesLedger is the native fuzz target over the same
// harness (seed corpus in testdata/fuzz/FuzzStateMatchesLedger):
//
//	go test -run '^$' -fuzz '^FuzzStateMatchesLedger$' -fuzztime 20s ./internal/tasktable
func FuzzStateMatchesLedger(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 9, 9, 0, 1, 2, 7, 7, 3, 0, 1, 4, 0, 0, 0, 1, 1, 5, 5})
	f.Fuzz(checkStateMatchesLedgers)
}
