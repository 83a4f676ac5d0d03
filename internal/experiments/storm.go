package experiments

import (
	"fmt"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
)

// StormConfig parameterizes the §5 shedding scenario: a system whose
// feasible region is filled by routine work (semantic importance 3) is
// hit by a storm of urgent aperiodic tasks (importance 10).
type StormConfig struct {
	// RoutineRate is the arrival rate of routine tasks
	// (C = (0.5, 0.1), D = 2: contribution 0.25 on stage 1, so two or
	// three concurrent routine tasks fill the region).
	RoutineRate float64
	// StormRate is the urgent-task arrival rate during the storm
	// (C = (0.05, 0.01), D = 0.5: contribution 0.1 on stage 1).
	StormRate float64
	// StormStart/StormEnd bound the storm window.
	StormStart, StormEnd float64
	Horizon, Warmup      float64
	Seed                 int64
}

// DefaultStorm returns the default scenario: routine work keeping the
// region essentially full, then a 20-second storm of 4 urgent tasks per
// second.
func DefaultStorm() StormConfig {
	return StormConfig{
		RoutineRate: 1.2,
		StormRate:   4,
		StormStart:  40,
		StormEnd:    60,
		Horizon:     100,
		Warmup:      10,
		Seed:        19,
	}
}

// SheddingStorm reproduces §5's overload behavior: "If an important
// incoming aperiodic task causes the system to move outside the feasible
// region ... less important load in the system can be immediately shed in
// reverse order of semantic importance until the system returns into the
// feasible region and admits the new arrival." The properties to
// reproduce: nearly every urgent task is admitted (by shedding routine
// work), completed tasks never miss their deadlines, and routine work is
// what gets sacrificed.
func SheddingStorm(cfg StormConfig) *stats.Table {
	sim := des.New()
	p := pipeline.New(sim, pipeline.Options{Stages: 2, EnableShedding: true})
	rng := dist.NewRNG(cfg.Seed)
	var id task.ID

	// Routine surveillance load: long-lived contributions that keep the
	// region occupied.
	routine := rng.Split()
	at := 0.0
	for {
		at += routine.ExpFloat64() / cfg.RoutineRate
		if at > cfg.Horizon {
			break
		}
		releaseAt := at
		taskID := id
		id++
		sim.At(releaseAt, func() {
			t := task.Chain(taskID, releaseAt, 2, 0.5*(0.5+routine.Float64()), 0.1)
			t.Class = "routine"
			t.Importance = 3
			p.Offer(t)
		})
	}

	// The urgent storm.
	threatsOffered, threatsAdmitted := 0, 0
	storm := rng.Split()
	at = cfg.StormStart
	for {
		at += storm.ExpFloat64() / cfg.StormRate
		if at > cfg.StormEnd {
			break
		}
		releaseAt := at
		taskID := id
		id++
		sim.At(releaseAt, func() {
			t := task.Chain(taskID, releaseAt, 0.5, 0.05, 0.01)
			t.Class = "urgent"
			t.Importance = 10
			threatsOffered++
			if p.Offer(t) {
				threatsAdmitted++
			}
		})
	}

	m := measure(sim, p, cfg.Warmup, cfg.Horizon)

	t := &stats.Table{
		Title:  "Extension: §5 semantic shedding under an urgent-task storm (importance 10 vs routine importance 3)",
		Header: []string{"metric", "value"},
	}
	t.AddRow("routine offered / entered", fmt.Sprintf("%d / %d", m.ByClass["routine"].Offered, m.ByClass["routine"].Entered))
	t.AddRow("storm", fmt.Sprintf("%.0f urgent/s over [%g, %g]s", cfg.StormRate, cfg.StormStart, cfg.StormEnd))
	t.AddRow("urgent admitted", fmt.Sprintf("%d / %d", threatsAdmitted, threatsOffered))
	t.AddRow("routine shed", fmt.Sprintf("%d", m.ByClass["routine"].Shed))
	t.AddRow("urgent shed", fmt.Sprintf("%d", m.ByClass["urgent"].Shed))
	t.AddRow("deadline misses (completed tasks)", fmt.Sprintf("%d / %d", m.Missed, m.Completed))
	return t
}
