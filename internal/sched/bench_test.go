package sched

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// dmJob is a pooled job of BenchmarkStagePreemptiveDM; it returns itself
// to the pool on completion.
type dmJob struct {
	Job
	src *dmSource
}

func (j *dmJob) Complete(des.Time) { j.src.free = append(j.src.free, j) }

// dmSource is a self-clocking Poisson arrival stream into one stage.
// Priorities are relative deadlines (deadline-monotonic), so an urgent
// arrival preempts the running job or, at an idle stage, starts at once.
type dmSource struct {
	sim  *des.Simulator
	st   *Stage
	rng  *dist.RNG
	free []*dmJob
	id   task.ID
}

func (s *dmSource) Fire(now des.Time) {
	if n := len(s.free); n > 0 {
		j := s.free[n-1]
		s.free = s.free[:n-1]
		s.id++
		deadline := 1 + 9*s.rng.Float64()
		s.st.SubmitJob(&j.Job, s.id, deadline, task.NewSubtask(0.8*s.rng.ExpFloat64()), math.Inf(1), j)
	}
	s.sim.AtTimer(now+s.rng.ExpFloat64(), s)
}

// BenchmarkStagePreemptiveDM drives a preemptive deadline-monotonic
// stage at 80 % load: submits, dispatches, queueing, preemptions and
// completions. One op is one simulator event, an arrival or a
// completion. It must report 0 allocs/op.
func BenchmarkStagePreemptiveDM(b *testing.B) {
	sim := des.New()
	src := &dmSource{sim: sim, st: New(sim, "s"), rng: dist.NewRNG(1)}
	pool := make([]dmJob, 256)
	for i := range pool {
		pool[i].src = src
		src.free = append(src.free, &pool[i])
	}
	sim.AtTimer(0, src)
	for i := 0; i < 100_000; i++ { // warm up to the working size
		sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}
