package online

import (
	"hash/fnv"
	"math"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// traceEvent is one replayed controller call: an arrival (admit attempt)
// or the release of a previously admitted request.
type traceEvent struct {
	at      time.Duration // offset from the trace start
	release bool
	id      uint64
	req     Request
}

// generateTrace drives the §4 workload generator through the simulator
// and flattens the arrivals into a wall-clock admission trace. Roughly
// half of all arrivals get an explicit release partway into their
// deadline (a task that departed early); the rest are left to expire.
func generateTrace(t *testing.T, seed int64, load float64) []traceEvent {
	t.Helper()
	const stages = 3
	sim := des.New()
	var events []traceEvent
	src := workload.NewSource(sim, workload.PipelineSpec{
		Stages:     stages,
		Load:       load,
		MeanDemand: 0.01,
		Resolution: 30,
	}, seed, 40.0, func(tk *task.Task) {
		at := time.Duration(sim.Now() * float64(time.Second))
		demands := make([]time.Duration, stages)
		for j := 0; j < stages; j++ {
			demands[j] = time.Duration(tk.StageDemand(j) * float64(time.Second))
		}
		deadline := time.Duration(tk.Deadline * float64(time.Second))
		events = append(events, traceEvent{
			at: at,
			req: Request{
				ID:       uint64(tk.ID),
				Deadline: deadline,
				Demands:  demands,
			},
		})
		if tk.ID%2 == 0 {
			events = append(events, traceEvent{
				at:      at + deadline/2,
				release: true,
				id:      uint64(tk.ID),
			})
		}
	})
	src.Start()
	sim.Run()
	if len(events) < 500 {
		t.Fatalf("trace too small to be meaningful: %d events", len(events))
	}
	// Releases were appended out of order (at arrival + deadline/2);
	// restore global time order with a stable insertion sort — the slice
	// is nearly sorted, so this is linear in practice.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].at < events[j-1].at; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	return events
}

// replay runs the trace through one controller, advancing its injected
// clock to each event's timestamp, and returns the admit/reject
// decision vector (indexed by arrival order).
func replay(c *Controller, clk *fakeClock, start time.Time, events []traceEvent) []bool {
	var decisions []bool
	for _, ev := range events {
		clk.mu.Lock()
		clk.now = start.Add(ev.at)
		clk.mu.Unlock()
		if ev.release {
			c.Release(ev.id)
			continue
		}
		decisions = append(decisions, c.TryAdmit(ev.req))
	}
	return decisions
}

// decisionDigest is the FNV-1a hash of an admit/reject vector, one
// byte per decision.
func decisionDigest(ds []bool) uint64 {
	h := fnv.New64a()
	for _, d := range ds {
		b := byte(0)
		if d {
			b = 1
		}
		h.Write([]byte{b})
	}
	return h.Sum64()
}

// TestReplayMatchesSingleLockReference pins the controller's decisions
// on replayed workload traces: every admit/reject must match the
// reference recorded from the single-lock plane with per-stage Ledger
// maps (now oracle.Ledger) that this package ran before the task-table
// data plane replaced it (decision count, digest, and the quiesce
// Utilizations() float bits). Decisions must match exactly. The
// reference plane kept Kahan sums of the unrounded contributions; the
// state charges each one rounded up to a quantum of 2^-40, so each
// quiesce utilization may lie above the reference by less than 2^-40
// per row still charging the stage, and never below it.
func TestReplayMatchesSingleLockReference(t *testing.T) {
	region := core.NewRegion(3)
	for _, tc := range []struct {
		name      string
		seed      int64
		load      float64
		decisions int
		digest    uint64
		utilBits  [3]uint64
	}{
		{"moderate", 1, 0.8, 3210, 0x917845d4e44918a3,
			[3]uint64{0x3fb6957f25c7e6de, 0x3fa942357708b153, 0x3fb007632c4c9a83}},
		{"overload", 2, 1.6, 6468, 0x34c6ee657a10eaf1,
			[3]uint64{0x3fb6c703f18fba36, 0x3fad03a1f03bb13d, 0x3fb3d56ac300719b}},
		{"heavy-overload", 3, 2.5, 9822, 0x737b28dd2a63078c,
			[3]uint64{0x3fb793097c41d742, 0x3fb83437085f1fbe, 0x3fb1f478c1d4b6d7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := generateTrace(t, tc.seed, tc.load)
			clk := newFakeClock()
			c := New(region, nil, clk.Now)
			got := replay(c, clk, time.Unix(1_000_000, 0), events)
			if len(got) != tc.decisions || decisionDigest(got) != tc.digest {
				t.Fatalf("%d decisions with digest %#x, reference %d with %#x (stats %+v)",
					len(got), decisionDigest(got), tc.decisions, tc.digest, c.Stats())
			}
			for j, u := range c.Utilizations() {
				ref := math.Float64frombits(tc.utilBits[j])
				rows := c.st.Charging(j)
				if over := u - ref; !(over >= 0 && over < float64(rows)*0x1p-40) {
					t.Fatalf("stage %d: utilization %v is %g above reference %v, outside [0, %d·2^-40)",
						j, u, over, ref, rows)
				}
			}
			if s := c.Stats(); s.Admitted == 0 || s.Rejected == 0 {
				t.Fatalf("trace exercises only one decision branch: %+v", s)
			}
		})
	}
}
