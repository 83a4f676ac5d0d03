package core

import (
	"math"
	"slices"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
	"feasregion/internal/tasktable/oracle"
)

// refAdmission is the differential test's record of one admission: the
// task, its current quality level, and the absolute deadline its expiry
// fires at. A record stays current until its task expires or is
// evicted; a re-admission of the ID starts a new record.
type refAdmission struct {
	tk    *task.Task
	level int
	at    float64
}

// reconfigure replaces every stage's reserved floor in place, as a
// mission-mode change would: admitted contributions are untouched, and
// a lowered floor retries held arrivals.
func reconfigure(c *Controller, floors []float64) {
	lowered := false
	for j, v := range floors {
		if v < c.st.Floor(j) {
			lowered = true
		}
		c.st.SetFloor(j, v)
		c.ledgers[j].notePeak()
	}
	c.notifyChange()
	if lowered {
		c.fireRelease()
	}
}

// TestControllerMatchesLedgers pins the controller's task-table
// bookkeeping to the reference oracle.Ledger, one per stage: both see the
// same random admissions (tested and forced), deadline expiries, evictions,
// re-charges, quality trims, departures, idle resets, and floor
// reconfigurations, and after every operation each stage's utilization
// and peak must be equal, with equal idle-reset and active-task counts.
// Both sum quantized charges exactly, so order does not matter, but the
// charges must be the same: cleared stages are never subtracted again
// at expiry.
//
// IDs are drawn from the full int64 range and are re-admitted after
// eviction, expiry, and full idle resets, so stale deadline timers and
// recycled rows occur; the reference drops a contribution only at the
// deadline of its own admission. Deadlines are distinct, so the
// simulator fires expiries in deadline order and the test replays them
// into the ledgers in that order.
func TestControllerMatchesLedgers(t *testing.T) {
	const stages = 3
	sim := des.New()
	c := NewController(sim, NewRegion(stages), nil)
	ledgers := make([]*oracle.Ledger, stages)
	for j := range ledgers {
		ledgers[j] = oracle.NewLedger(0)
	}

	rng := uint64(0x2545F4914F6CDD1D)
	next := func(n uint64) uint64 { // xorshift, reduced to [0, n)
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	cur := map[task.ID]*refAdmission{} // admitted, not yet expired or evicted
	var active []task.ID               // cur's keys, in admission order
	var timers []*refAdmission         // every admission, by deadline when due
	var known []task.ID                // every ID admitted so far
	retire := func(id task.ID) {
		if i := slices.Index(active, id); i >= 0 {
			active = slices.Delete(active, i, i+1)
		}
		delete(cur, id)
	}
	usedAt := map[float64]bool{}
	refLive := func(id task.ID) bool {
		for _, l := range ledgers {
			if _, ok := l.Contribution(id); ok {
				return true
			}
		}
		return false
	}
	pick := func() task.ID { // mostly an admitted task, else any ID
		switch {
		case len(active) > 0 && next(4) != 0:
			return active[next(uint64(len(active)))]
		case len(known) > 0 && next(8) != 0:
			return known[next(uint64(len(known)))]
		}
		return task.ID(next(1 << 20))
	}
	var n struct{ admitted, rejected, resets, expired, stale, evicted, trims, readmits int }

	for step := 0; step < 30000; step++ {
		var op string
		now := sim.Now()
		switch r := next(40); {
		case r < 12:
			op = "admit"
			var id task.ID
			switch r := next(10); {
			case r < 4 && len(known) > 0:
				id = known[next(uint64(len(known)))] // re-admission
			case r < 5:
				id = []task.ID{-1, math.MinInt64, math.MaxInt64, 0}[next(4)]
			default:
				id = task.ID(next(math.MaxUint64)) // the full int64 range
			}
			if refLive(id) {
				break
			}
			deadline := float64(1 + next(400))
			for usedAt[now+deadline] {
				deadline++
			}
			dem := make([]float64, stages)
			for j := range dem {
				dem[j] = float64(next(uint64(deadline)*1000/16)) / 1000
			}
			tk := task.Chain(id, now, deadline, dem...)
			if next(3) == 0 {
				tk.SetOptionalFraction(float64(1+next(9)) / 10)
			}
			d := make([]float64, stages)
			sum := 0.0
			for j := range d {
				d[j] = tk.StageDemand(j) / tk.Deadline
				sum += StageDelayFactor(ledgers[j].Utilization() + d[j])
			}
			force := next(8) == 0
			if force {
				c.commit(tk, c.deltas(tk), task.QualityLevels) // untested commit
			} else {
				want := sum <= c.Region().Bound()
				if got := c.TryAdmit(tk); got != want {
					t.Fatalf("step %d: TryAdmit(%d) = %v, reference test says %v", step, id, got, want)
				}
				if !want {
					n.rejected++
					break
				}
			}
			n.admitted++
			if slices.Contains(known, id) {
				n.readmits++
			}
			for j, l := range ledgers {
				l.Add(id, d[j])
			}
			a := &refAdmission{tk: tk, level: task.QualityLevels, at: now + deadline}
			cur[id] = a
			active = append(active, id)
			usedAt[a.at] = true
			timers = append(timers, a)
			if !slices.Contains(known, id) {
				known = append(known, id)
			}
		case r < 16:
			op = "advance"
			until := now + float64(1+next(20))
			slices.SortFunc(timers, func(a, b *refAdmission) int { return int(a.at - b.at) })
			k := 0
			for ; k < len(timers) && timers[k].at <= until; k++ {
				a := timers[k]
				id := a.tk.ID
				if cur[id] != a {
					n.stale++ // evicted, or since re-admitted
					continue
				}
				retire(id)
				for _, l := range ledgers {
					l.Remove(id)
				}
				n.expired++
			}
			timers = timers[k:]
			sim.RunUntil(until)
		case r < 19:
			op = "evict"
			id := pick()
			c.Evict(id)
			if refLive(id) {
				n.evicted++
			}
			retire(id)
			for _, l := range ledgers {
				l.Remove(id)
			}
		case r < 21:
			op = "recharge"
			id, j := pick(), int(next(stages))
			v := float64(next(1000)) / 20000
			want := ledgers[j].Update(id, v)
			if got := c.Recharge(id, j, v); got != want {
				t.Fatalf("step %d: Recharge(%d, %d) = %v, reference %v", step, id, j, got, want)
			}
		case r < 23:
			op = "degrade"
			id := pick()
			a := cur[id]
			if a == nil {
				if _, ok := c.Degrade(task.Chain(id, 0, 1, 1, 1, 1), 0); ok {
					t.Fatalf("step %d: Degrade of absent task %d reported a change", step, id)
				}
				break
			}
			level := int(next(task.QualityLevels + 1))
			var want float64
			wantOK := refLive(id) && level < a.level && a.tk.HasOptional()
			if wantOK {
				for j, l := range ledgers {
					contrib, here := l.Contribution(id)
					curDemand := a.tk.StageDemandAt(j, a.level)
					if !here || contrib == 0 || curDemand <= 0 {
						continue
					}
					v := contrib * a.tk.StageDemandAt(j, level) / curDemand
					l.Update(id, v)
					want += contrib - v
				}
				a.level = level
				n.trims++
			}
			got, ok := c.Degrade(a.tk, level)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: Degrade(%d, %d) = %v, %v; reference %v, %v", step, id, level, got, ok, want, wantOK)
			}
		case r < 33:
			op = "depart"
			id, j := pick(), int(next(stages))
			c.MarkDeparted(j, id)
			ledgers[j].MarkDeparted(id)
		case r < 39:
			op = "idle"
			j := int(next(stages))
			c.HandleStageIdle(j)
			if ledgers[j].ResetIdle() > 0 {
				n.resets++
			}
		default:
			op = "reconfigure"
			floors := make([]float64, stages)
			for j := range floors {
				floors[j] = float64(next(100)) / 1000
				ledgers[j].SetReserved(floors[j])
			}
			reconfigure(c, floors)
		}
		for j, l := range ledgers {
			got := c.Ledger(j)
			if u, want := got.Utilization(), l.Utilization(); u != want {
				t.Fatalf("step %d (%s) stage %d: utilization %v (%#x) != ledger %v (%#x)",
					step, op, j, u, math.Float64bits(u), want, math.Float64bits(want))
			}
			if p, want := got.Peak(), l.Peak(); p != want {
				t.Fatalf("step %d (%s) stage %d: peak %v != ledger %v", step, op, j, p, want)
			}
			if got.Resets() != l.Resets() || got.ActiveTasks() != l.ActiveTasks() {
				t.Fatalf("step %d (%s) stage %d: resets %d, active %d; ledger %d, %d",
					step, op, j, got.Resets(), got.ActiveTasks(), l.Resets(), l.ActiveTasks())
			}
			if len(known) > 0 {
				id := known[next(uint64(len(known)))]
				v, ok := got.Contribution(id)
				wv, wok := l.Contribution(id)
				if ok != wok || math.Float64bits(v) != math.Float64bits(wv) {
					t.Fatalf("step %d (%s) stage %d: Contribution(%d) = %v, %v; ledger %v, %v", step, op, j, id, v, ok, wv, wok)
				}
			}
		}
	}
	if n.admitted < 2000 || n.rejected < 200 || n.resets < 500 || n.expired < 500 ||
		n.stale < 50 || n.evicted < 50 || n.trims < 50 || n.readmits < 200 {
		t.Fatalf("trace too tame: %+v", n)
	}
}

// TestStaleExpiryAfterReadmit evicts a task and re-admits its ID with a
// later deadline: the first admission's deadline timer must not strip
// the second admission's charge, which stays until its own deadline.
func TestStaleExpiryAfterReadmit(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	if !c.TryAdmit(task.Chain(1, 0, 4, 1)) {
		t.Fatal("first admission rejected")
	}
	c.Evict(1)
	sim.RunUntil(1)
	if !c.TryAdmit(task.Chain(1, 1, 10, 1.25)) {
		t.Fatal("re-admission rejected")
	}
	sim.RunUntil(5) // past the first admission's deadline
	if u := c.Ledger(0).Utilization(); u != 0.125 {
		t.Fatalf("utilization %v after the stale timer, want the live task's 0.125", u)
	}
	if level, ok := c.QualityOf(1); !ok || level != task.QualityLevels {
		t.Fatalf("QualityOf = %d, %v after the stale timer", level, ok)
	}
	sim.RunUntil(11)
	if u := c.Ledger(0).Utilization(); u != 0 {
		t.Fatalf("utilization %v after the live task's deadline, want 0", u)
	}
}

// TestStaleExpiryAfterRecycledRow is the idle-reset variant: the task
// departs and is cleared at every stage, so its row lingers without
// charging anything, and re-admitting the ID recycles that row. The
// first admission's timer must leave the recycled row alone.
func TestStaleExpiryAfterRecycledRow(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	if !c.TryAdmit(task.Chain(1, 0, 4, 1, 1)) {
		t.Fatal("first admission rejected")
	}
	for j := 0; j < 2; j++ {
		c.MarkDeparted(j, 1)
		c.HandleStageIdle(j)
	}
	if _, ok := c.QualityOf(1); ok {
		t.Fatal("task still contributes after idle resets at every stage")
	}
	sim.RunUntil(1)
	if !c.TryAdmit(task.Chain(1, 1, 10, 1.25, 2.5)) {
		t.Fatal("re-admission rejected")
	}
	sim.RunUntil(5)
	for j, want := range []float64{0.125, 0.25} {
		if u := c.Ledger(j).Utilization(); u != want {
			t.Fatalf("stage %d: utilization %v after the stale timer, want %v", j, u, want)
		}
	}
	sim.RunUntil(11)
	for j := 0; j < 2; j++ {
		if u, n := c.Ledger(j).Utilization(), c.Ledger(j).ActiveTasks(); u != 0 || n != 0 {
			t.Fatalf("stage %d: utilization %v with %d tasks after the deadline", j, u, n)
		}
	}
}

// TestGraphStaleExpiryAfterReadmit is the DAG controller's stale-timer
// check: a task departs and is idle-reset away, its ID is re-admitted,
// and the first admission's deadline must leave the new charge alone.
func TestGraphStaleExpiryAfterReadmit(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 1, 1, nil)
	g := task.NewGraph()
	g.AddNode(0, task.NewSubtask(1.25))
	if !c.TryAdmit(&task.Task{ID: 7, Arrival: 0, Deadline: 10, Graph: g}) {
		t.Fatal("first admission rejected")
	}
	c.MarkDeparted(0, 7)
	c.HandleResourceIdle(0)
	sim.RunUntil(5)
	if !c.TryAdmit(&task.Task{ID: 7, Arrival: 5, Deadline: 10, Graph: g}) {
		t.Fatal("re-admission rejected")
	}
	want := c.Utilizations()[0]
	sim.RunUntil(12) // past the first admission's deadline (10)
	if u := c.Utilizations()[0]; u != want || u != 0.125 {
		t.Fatalf("utilization %v after the stale deadline, want the live task's %v", u, want)
	}
	sim.RunUntil(16)
	if u := c.Utilizations()[0]; u != 0 {
		t.Fatalf("utilization %v after the live task's deadline, want 0", u)
	}
}

// TestControllerFullIDRange admits, departs, idle-resets, and expires
// the extreme IDs — -1 and math.MaxInt64 sit next to the table's empty
// marker in key space — alongside ordinary ones.
func TestControllerFullIDRange(t *testing.T) {
	ids := []task.ID{-1, math.MinInt64, math.MaxInt64, 0, 7}
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	for i, id := range ids {
		if !c.TryAdmit(task.Chain(id, 0, float64(10+i), 0.1, 0.1)) {
			t.Fatalf("admit %d rejected", id)
		}
	}
	for _, id := range ids {
		if level, ok := c.QualityOf(id); !ok || level != task.QualityLevels {
			t.Fatalf("QualityOf(%d) = %d, %v", id, level, ok)
		}
		c.MarkDeparted(0, id)
	}
	c.HandleStageIdle(0)
	if n := c.Ledger(0).ActiveTasks(); n != 0 {
		t.Fatalf("stage 0 holds %d tasks after its idle reset", n)
	}
	for _, id := range ids {
		if _, ok := c.Ledger(0).Contribution(id); ok {
			t.Fatalf("task %d still charges stage 0", id)
		}
		if v, ok := c.Ledger(1).Contribution(id); !ok || v != 0.1/float64(10+slices.Index(ids, id)) {
			t.Fatalf("task %d charges stage 1 with %v, %v", id, v, ok)
		}
	}
	sim.Run()
	for j := 0; j < 2; j++ {
		if u, n := c.Ledger(j).Utilization(), c.Ledger(j).ActiveTasks(); u != 0 || n != 0 {
			t.Fatalf("stage %d: utilization %v with %d tasks after every deadline", j, u, n)
		}
	}
	for _, id := range ids {
		if _, ok := c.QualityOf(id); ok {
			t.Fatalf("task %d still present after its deadline", id)
		}
		if !c.TryAdmit(task.Chain(id, sim.Now(), 5, 0.1, 0.1)) {
			t.Fatalf("re-admit %d rejected", id)
		}
	}
	if got := c.Ledger(1).ActiveTasks(); got != len(ids) {
		t.Fatalf("stage 1 holds %d tasks, want %d", got, len(ids))
	}
}
