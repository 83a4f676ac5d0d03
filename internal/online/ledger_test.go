package online

import (
	"math"
	"slices"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/task"
	"feasregion/internal/tasktable/oracle"
)

// TestOneShardMatchesLedgers pins the controller to oracle.Ledger's
// arithmetic: a controller and one ledger per stage see the same
// random admits, releases, expiries, departures, and idle resets, and
// every stage's utilization must be equal after every operation. Both
// sum quantized charges exactly, so order does not matter, but the
// charges must be the same: raw demand computed in seconds, and cleared
// stages never subtracted again.
//
// Every deadline lands on its own whole-millisecond wheel tick, so the
// wheel flushes expiries in deadline order, and the test removes them
// from the ledgers in that order.
func TestOneShardMatchesLedgers(t *testing.T) {
	const stages = 3
	clk := newFakeClock()
	c := New(core.NewRegion(stages), nil, clk.Now)
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
	type row struct {
		id uint64
		at int64
	}
	var inflight []row // admitted, not yet released or expired
	usedAt := map[int64]bool{}
	var lastID uint64
	var admitted, rejected, resets, expired int

	for step := 0; step < 20000; step++ {
		var op string
		switch r := next(20); {
		case r < 7:
			op = "admit"
			now := clk.Now().UnixNano()
			d := time.Duration(1+next(400)) * time.Millisecond
			for usedAt[now+int64(d)] {
				d += time.Millisecond
			}
			dem := make([]time.Duration, stages)
			for j := range dem {
				dem[j] = time.Duration(next(uint64(d) / 6))
			}
			lastID++
			if !c.TryAdmit(Request{ID: lastID, Deadline: d, Demands: dem}) {
				rejected++
				break
			}
			admitted++
			usedAt[now+int64(d)] = true
			inflight = append(inflight, row{lastID, now + int64(d)})
			for j, l := range ledgers {
				l.Add(task.ID(lastID), dem[j].Seconds()*(1/d.Seconds()))
			}
		case r < 9:
			op = "release"
			if len(inflight) == 0 {
				break
			}
			i := int(next(uint64(len(inflight))))
			id := inflight[i].id
			inflight = slices.Delete(inflight, i, i+1)
			c.Release(id)
			for _, l := range ledgers {
				l.Remove(task.ID(id))
			}
		case r < 15:
			op = "depart"
			if len(inflight) == 0 {
				break
			}
			id, j := inflight[next(uint64(len(inflight)))].id, int(next(stages))
			c.MarkDeparted(j, id)
			ledgers[j].MarkDeparted(task.ID(id))
		case r < 18:
			op = "idle"
			j := int(next(stages))
			c.StageIdle(j)
			if ledgers[j].ResetIdle() > 0 {
				resets++
			}
		default:
			op = "advance"
			clk.Advance(time.Duration(1+next(40)) * time.Millisecond)
			// A whole-millisecond deadline's tick has elapsed once the
			// clock is past it; the check's read purges the controller.
			now := clk.Now().UnixNano()
			slices.SortFunc(inflight, func(a, b row) int { return int(a.at - b.at) })
			n := 0
			for n < len(inflight) && inflight[n].at < now {
				for _, l := range ledgers {
					l.Remove(task.ID(inflight[n].id))
				}
				n++
			}
			expired += n
			inflight = inflight[n:]
		}
		us := c.Utilizations()
		for j, l := range ledgers {
			if want := l.Utilization(); us[j] != want {
				t.Fatalf("step %d (%s) stage %d: shard %v (%#x) != ledger %v (%#x)",
					step, op, j, us[j], math.Float64bits(us[j]), want, math.Float64bits(want))
			}
		}
	}
	if admitted < 1000 || rejected < 100 || resets < 100 || expired < 300 {
		t.Fatalf("trace too tame: %d admitted, %d rejected, %d idle resets, %d expired",
			admitted, rejected, resets, expired)
	}
}
