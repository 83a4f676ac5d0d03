package sched

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// streamHash folds values into an FNV-1a digest byte by byte.
type streamHash uint64

func (h *streamHash) fold(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= streamHash(v & 0xff)
		*h *= 1099511628211
		v >>= 8
	}
}

func (h *streamHash) float(v float64) { h.fold(math.Float64bits(v)) }

// streamCompleter records a job's completion into the stream digest
// and, when next is set, submits a follow-up job to the same stage from
// inside the completion, while the stage has no running job.
type streamCompleter struct {
	h    *streamHash
	id   task.ID
	next func()
}

func (c *streamCompleter) Complete(now des.Time) {
	c.h.fold(uint64(c.id))
	c.h.float(now)
	if c.next != nil {
		c.next()
	}
}

// runStream drives one stage with a seeded random submit stream — tied
// and distinct priorities, simultaneous releases, PCP critical sections
// (some opening the job), follow-ups submitted from a completion,
// Pause/Resume windows, cancels, trims, preemption overhead, an exec
// model and overrun budgets whose handler sometimes cancels — and
// digests every scheduling event, completion and overrun, then the
// final Stats.
func runStream(seed int64) uint64 {
	g := dist.NewRNG(seed)
	sim := des.New()
	st := New(sim, "s")
	st.RegisterLock(1, 2)
	st.RegisterLock(2, 5)
	if seed%2 == 0 {
		st.SetPreemptionOverhead(0.05)
	}
	if seed%3 == 0 {
		st.SetExecModel(func(id task.ID, d float64) float64 {
			if id%5 == 0 {
				return d * 1.4
			}
			return d
		})
	}
	h := streamHash(14695981039346656037)
	st.OnEvent(func(e Event) {
		h.float(e.Time)
		h.fold(uint64(e.Task))
		h.fold(uint64(e.Kind))
	})
	st.OnOverrun(func(j *Job, consumed, total float64) {
		h.fold(uint64(j.TaskID))
		h.float(consumed)
		h.float(total)
		if j.TaskID%2 == 0 {
			st.Cancel(j)
		}
	})

	const n = 600
	jobs := make([]Job, 2*n)
	done := make([]streamCompleter, 2*n)
	at := 0.0
	for i := 0; i < n; i++ {
		if g.Float64() < 0.7 { // else: released together with the previous job
			at += g.ExpFloat64() * 3.2
		}
		id := task.ID(i)
		sub := randomSubtask(g)
		if g.Float64() < 0.1 { // one critical section, held from dispatch
			sub = task.Subtask{Demand: sub.Demand, Segments: []task.Segment{{Duration: sub.Demand, Lock: 1 + g.Intn(2)}}}
		}
		prio := math.Floor(g.Float64() * 6)
		budget := math.Inf(1)
		if g.Float64() < 0.3 {
			budget = sub.Demand * (0.5 + g.Float64())
		}
		j, c := &jobs[i], &done[i]
		*c = streamCompleter{h: &h, id: id}
		if g.Float64() < 0.25 {
			fj, fc, fid := &jobs[n+i], &done[n+i], task.ID(n+i)
			*fc = streamCompleter{h: &h, id: fid}
			fprio, fsub := math.Floor(g.Float64()*6), task.NewSubtask(g.ExpFloat64()*0.5+0.01)
			c.next = func() { st.SubmitJob(fj, fid, fprio, fsub, math.Inf(1), fc) }
		}
		sim.At(at, func() { st.SubmitJob(j, id, prio, sub, budget, c) })
		switch u := g.Float64(); {
		case u < 0.08:
			sim.At(at+g.ExpFloat64(), func() { h.fold(b2u(st.Cancel(j))) })
		case u < 0.16:
			frac := g.Float64()
			sim.At(at+g.ExpFloat64()*0.5, func() {
				h.fold(b2u(st.TrimTo(j, sub.Demand*frac, sub.Demand)))
			})
		case u < 0.19:
			d := g.ExpFloat64() * 2
			sim.At(at+g.Float64(), func() {
				st.Pause()
				if g.Float64() < 0.5 {
					h.fold(uint64(st.DropProgress()))
				}
				sim.After(d, st.Resume)
			})
		}
	}
	sim.Run()
	s := st.Stats()
	for _, v := range []uint64{s.Submitted, s.Completed, s.Cancelled, s.Preemptions, uint64(s.MaxReady), s.BusyPeriods} {
		h.fold(v)
	}
	h.float(s.LongestBusyPeriod)
	h.float(st.BusyTime(sim.Now()))
	return uint64(h)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestEventStreamGolden pins the exact scheduling event stream and
// counters of seeded random workloads: a change to dispatch must keep
// every start, preemption, block, completion, cancel and overrun at the
// same instant and in the same order.
func TestEventStreamGolden(t *testing.T) {
	golden := map[int64]uint64{
		1: 0x82b78e0767970d01,
		2: 0xb64bcbc894315528,
		3: 0x8f65df4c2878bc44,
		4: 0xf4cf82a7a6cc860b,
		5: 0xfdea7a935dbff493,
		6: 0x1e156eff45b16e15,
	}
	for seed := int64(1); seed <= 6; seed++ {
		if got := runStream(seed); got != golden[seed] {
			t.Errorf("seed %d: stream digest %#016x, want %#016x", seed, got, golden[seed])
		}
	}
}
