package pipeline

import (
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/stats"
	"feasregion/internal/task"
)

// measured is the measurement surface Pipeline, GraphSystem and
// MultiServerPipeline share.
type measured interface {
	OnComplete(fn func(response float64, missed bool))
	BeginMeasurement()
	Snapshot() Metrics
}

// TestOnCompleteMatchesWindow drives an overloaded two-stage run (tasks
// complete before and after the window opens, and without admission
// some miss) and checks the callback against the snapshot it feeds.
func TestOnCompleteMatchesWindow(t *testing.T) {
	const warmup, arrivals = 20.0, 120
	for _, tc := range []struct {
		name   string
		admits bool // Theorem 2 admission: nothing misses
		build  func(*des.Simulator) (measured, func(*task.Task) bool)
	}{
		{"pipeline", false, func(sim *des.Simulator) (measured, func(*task.Task) bool) {
			p := New(sim, Options{Stages: 2, NoAdmission: true})
			return p, p.Offer
		}},
		{"graph", false, func(sim *des.Simulator) (measured, func(*task.Task) bool) {
			g := NewGraphSystem(sim, GraphOptions{Resources: 2, NoAdmission: true})
			return g, func(tk *task.Task) bool {
				return g.Offer(&task.Task{ID: tk.ID, Arrival: tk.Arrival, Deadline: tk.Deadline,
					Graph: chainGraph(tk.Subtasks[0].Demand, tk.Subtasks[1].Demand)})
			}
		}},
		{"multiserver", true, func(sim *des.Simulator) (measured, func(*task.Task) bool) {
			m := NewMultiServerPipeline(sim, MultiServerOptions{Stages: 2, Servers: 1})
			return m, m.Offer
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := des.New()
			sys, offer := tc.build(sim)
			var (
				began, early  bool
				fired, missed uint64
				resp          stats.Welford
			)
			sys.OnComplete(func(response float64, miss bool) {
				if !began {
					early = true
				}
				fired++
				if miss {
					missed++
				}
				resp.Add(response)
			})
			sim.At(warmup, func() { began = true; sys.BeginMeasurement() })
			// Mean demand 1.1 per stage against one arrival per unit:
			// the queues grow and the later tasks miss.
			for i := 0; i < arrivals; i++ {
				at, id := float64(i), task.ID(i)
				d1, d2 := 0.5+float64(i%5)*0.3, 0.5+float64((i+2)%5)*0.3
				sim.At(at, func() { offer(task.Chain(id, at, 8, d1, d2)) })
			}
			sim.Run()
			m := sys.Snapshot()
			if early {
				t.Error("OnComplete fired before BeginMeasurement")
			}
			if m.Completed == 0 || (m.Missed == 0) != tc.admits || m.Missed == m.Completed {
				t.Fatalf("scenario too tame: completed %d, missed %d", m.Completed, m.Missed)
			}
			if fired != m.Completed {
				t.Errorf("fired %d times, Completed %d", fired, m.Completed)
			}
			if missed != m.Missed {
				t.Errorf("missed %d, Missed %d", missed, m.Missed)
			}
			if resp.Mean() != m.ResponseTimes.Mean() {
				t.Errorf("mean response %v, ResponseTimes.Mean %v", resp.Mean(), m.ResponseTimes.Mean())
			}
		})
	}
}
