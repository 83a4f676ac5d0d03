package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// graphDigest replays a graphStream through a fresh three-resource
// GraphController, directly through TryAdmit or, when maxWait > 0,
// through a graph wait queue holding arrivals up to maxWait. Before
// every fifth arrival, one resource in turn is idle-reset; with depart,
// it first marks departed every task admitted since its own last reset
// (without, the reset finds nothing departed). With grid, each
// arrival time and deadline is floored to an integer, so arrivals,
// deadlines and expiries tie. It returns an FNV-64a digest of every
// decision (the arrival's ID and whether it entered at once) and of
// every late admission (its ID and the admission time), the
// controller's stats and the wait queue's.
func graphDigest(arrivals []graphArrival, grid, depart bool, maxWait float64) (uint64, Stats, WaitStats) {
	sim := des.New()
	c := NewGraphController(sim, 3, 1, nil)
	dg := fnv.New64a()
	var b [16]byte
	note := func(id task.ID, v uint64) {
		binary.LittleEndian.PutUint64(b[:8], uint64(id))
		binary.LittleEndian.PutUint64(b[8:], v)
		dg.Write(b[:])
	}
	var sinceReset [3][]task.ID
	admitted := func(id task.ID) {
		if !depart {
			return
		}
		for k := range sinceReset {
			sinceReset[k] = append(sinceReset[k], id)
		}
	}
	var submitting, in bool // inside Submit; the arrival entered at once
	var w *WaitQueue
	if maxWait > 0 {
		w = NewGraphWaitQueue(sim, c, maxWait, func(t *task.Task) {
			admitted(t.ID)
			if submitting {
				in = true
			} else {
				note(t.ID, math.Float64bits(sim.Now()))
			}
		})
	}
	for i, a := range arrivals {
		i, a := i, a
		at, deadline := a.at, a.deadline
		if grid {
			at, deadline = math.Floor(at), math.Floor(deadline)
		}
		sim.At(at, func() {
			if i%5 == 0 {
				k := (i / 5) % 3
				for _, id := range sinceReset[k] {
					c.MarkDeparted(k, id)
				}
				sinceReset[k] = sinceReset[k][:0]
				c.HandleResourceIdle(k)
			}
			g := task.NewGraph()
			a.build(g)
			t := &task.Task{ID: task.ID(i), Arrival: at, Deadline: deadline, Graph: g}
			in = false
			if w != nil {
				submitting = true
				w.Submit(t)
				submitting = false
			} else if in = c.TryAdmit(t); in {
				admitted(t.ID)
			}
			v := uint64(0)
			if in {
				v = 1
			}
			note(t.ID, v)
		})
	}
	sim.Run()
	var ws WaitStats
	if w != nil {
		ws = w.Stats()
	}
	return dg.Sum64(), c.Stats(), ws
}

// TestGraphControllerDecisionDigest pins the DAG plane's decisions over
// a 3000-arrival graphStream of three shapes: on its real-valued times
// and on an integer grid where arrivals, deadlines and expiries tie,
// through TryAdmit and through a wait queue (max wait 2), with and
// without departures before the idle resets. The digests and counts
// were recorded from a controller that counted each shape's active
// admissions and dropped the shape in the last one's expiry. A rule
// that retires a shape at any other event moves them: dropping shapes
// whose latest deadline is ≤ now at every release admits 889 on the
// grid-wait stream, not 886.
func TestGraphControllerDecisionDigest(t *testing.T) {
	arrivals := graphStream(5, 3000)
	for _, tc := range []struct {
		name         string
		grid, depart bool
		maxWait      float64
		want         uint64
		stats        Stats
		wait         WaitStats
	}{
		{name: "real", want: 0xa8f689062043b805, stats: Stats{Admitted: 740, Rejected: 2260}},
		{name: "grid", grid: true, want: 0x73a26c6407da318c, stats: Stats{Admitted: 739, Rejected: 2261}},
		{name: "grid-depart", grid: true, depart: true, want: 0x9b192972de02e2a4, stats: Stats{Admitted: 1083, Rejected: 1917}},
		{name: "real-wait", maxWait: 2, want: 0xde94070262d90b15, stats: Stats{Admitted: 860}, wait: WaitStats{371, 489, 2140}},
		{name: "grid-wait", grid: true, maxWait: 2, want: 0x6bf0e8c7cddc3127, stats: Stats{Admitted: 886}, wait: WaitStats{268, 618, 2114}},
		{name: "real-wait-depart", depart: true, maxWait: 2, want: 0x037063b837cfefb1, stats: Stats{Admitted: 1116}, wait: WaitStats{359, 757, 1884}},
		{name: "grid-wait-depart", grid: true, depart: true, maxWait: 2, want: 0x4997a862498f1d64, stats: Stats{Admitted: 1099}, wait: WaitStats{251, 848, 1901}},
	} {
		got, st, ws := graphDigest(arrivals, tc.grid, tc.depart, tc.maxWait)
		if got != tc.want || st != tc.stats || ws != tc.wait {
			t.Errorf("%s: digest %016x, %+v, %+v; want %016x, %+v, %+v", tc.name, got, st, ws, tc.want, tc.stats, tc.wait)
		}
	}
}

// FuzzGraphAdmissionSound decodes bytes into a DAG arrival stream over
// three resources and checks Theorem 2's promise after every event: the
// condition of every admitted task whose absolute deadline has not
// passed holds at the controller's utilization point. The first byte
// picks the blocking terms and α; then each four bytes are one event,
// after a clock advance of 0–1.5 (a zero advance ties it with the
// previous event and with any expiry due then): an arrival (a shape
// kind, node demands and an integer deadline, admitted through TryAdmit
// or a wait queue holding it up to 1.5), a departure of an admitted task
// from one resource, or an idle reset. A shape retired while one of its
// admissions is active lets a later arrival break that admission's
// condition. Once every deadline has passed, no shape may remain.
func FuzzGraphAdmissionSound(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0x55, 0, 4, 1, 0xff, 0, 0, 8, 0x11, 1, 2, 0, 1, 2, 3, 1, 0, 0})
	f.Add([]byte{3, 0, 2, 0xaa, 0, 4, 3, 0x0f, 0, 0, 2, 0xaa, 0, 1, 7, 0x33, 2, 2, 4, 1, 3, 3, 0, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{1, 4, 9, 0x5a, 3, 0, 10, 0xa5, 0, 4, 1, 0x00, 0, 3, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var betas []float64
		alpha := 1.0
		if data[0]&1 != 0 {
			betas = []float64{0.05, 0, 0.1}
		}
		if data[0]&2 != 0 {
			alpha = 0.8
		}
		// The charged point sits above the tested one by at most 2^-40
		// per row and resource (tasktable's rounding).
		const slack = 1e-9
		sim := des.New()
		c := NewGraphController(sim, 3, alpha, betas)
		type admittedTask struct {
			id    task.ID
			g     *task.Graph
			until float64
		}
		var live []admittedTask
		check := func(event string) {
			now, us := sim.Now(), c.Utilizations()
			kept := live[:0]
			for _, a := range live {
				if a.until <= now {
					continue
				}
				if !GraphFeasible(a.g, us, betas, alpha+slack) {
					t.Fatalf("t=%v after %s: task %d's condition %v > α=%v at %v (%d shapes active)",
						now, event, a.id, GraphValue(a.g, us, betas), alpha, us, len(c.shapes))
				}
				kept = append(kept, a)
			}
			live = kept
		}
		admit := func(tk *task.Task) {
			live = append(live, admittedTask{tk.ID, tk.Graph, tk.AbsoluteDeadline()})
		}
		w := NewGraphWaitQueue(sim, c, 1.5, admit)
		c.OnRelease(func(des.Time) { check("a release") })
		now := 0.0
		for i, ev := 0, data[1:]; len(ev) >= 4; i, ev = i+1, ev[4:] {
			op, a, b := ev[0], ev[1], ev[2]
			now += 0.5 * float64(ev[3]%4)
			sim.RunUntil(now)
			switch op % 4 {
			case 0, 1: // an arrival
				ga := graphArrival{kind: int(a % 3), demands: make([]float64, 4)}
				for j := range ga.demands {
					ga.demands[j] = 0.25 * float64(1+(b>>(2*j))&3)
				}
				g := task.NewGraph()
				ga.build(g)
				tk := &task.Task{ID: task.ID(i), Arrival: now, Deadline: float64(2 + a/3%14), Graph: g}
				if op&4 != 0 {
					w.Submit(tk)
				} else if c.TryAdmit(tk) {
					admit(tk)
				}
				check("an arrival")
			case 2: // a departure from one resource
				if len(live) > 0 {
					c.MarkDeparted(int(b%3), live[int(a)%len(live)].id)
				}
			default:
				c.HandleResourceIdle(int(a % 3))
			}
		}
		sim.Run()
		if len(c.shapes) != 0 {
			t.Fatalf("%d shapes active after every deadline passed", len(c.shapes))
		}
	})
}

// TestGraphShapeSurvivesAnchorIDReuse: a task that has departed every
// resource and been idle-reset away may have its ID admitted again.
// When it was its shape's anchor, the new admission recycles the
// anchor's row, and the row then goes at the new admission's deadline;
// the shape must stay active while another of its admissions is.
func TestGraphShapeSurvivesAnchorIDReuse(t *testing.T) {
	sim := des.New()
	c := NewGraphController(sim, 2, 1, nil)
	single := func(demand float64) *task.Graph {
		g := task.NewGraph()
		g.AddNode(0, task.NewSubtask(demand))
		return g
	}
	// Y and then X, both chains over resources 0 and 1; X expires last,
	// so it anchors the chain shape.
	if !c.TryAdmit(&task.Task{ID: 1, Deadline: 15, Graph: chainGraph(0.15, 4.5)}) || // Y: U = (0.01, 0.3)
		!c.TryAdmit(&task.Task{ID: 2, Deadline: 20, Graph: chainGraph(0.2, 0.2)}) { // X
		t.Fatal("chain admissions rejected")
	}
	for j := 0; j < 2; j++ {
		c.MarkDeparted(j, 2)
		c.HandleResourceIdle(j)
	}
	sim.RunUntil(1)
	if !c.TryAdmit(&task.Task{ID: 2, Arrival: 1, Deadline: 2, Graph: single(0.1)}) {
		t.Fatal("re-admission of X's ID rejected")
	}
	sim.RunUntil(4) // the re-admission's deadline decrement drops the row at 3
	// f(0.51) passes the single node's own condition but breaks Y's:
	// f(0.51) + f(0.3) > 1.
	big := &task.Task{ID: 3, Arrival: 4, Deadline: 10, Graph: single(5)}
	if c.TryAdmit(big) {
		t.Fatalf("admitted past the active chain's condition: %v at %v",
			GraphValue(chainGraph(0.15, 4.5), c.Utilizations(), nil), c.Utilizations())
	}
	sim.Run()
	if len(c.shapes) != 0 {
		t.Fatalf("%d shapes active after every deadline passed", len(c.shapes))
	}
}
