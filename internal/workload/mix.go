package workload

import (
	"fmt"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// ClassSpec describes one request class in a mixed workload: a Poisson
// stream with its own demand profile, deadline, and semantic importance
// (the webserver and TSCE scenarios are mixes of such classes).
type ClassSpec struct {
	// Name labels instances (Task.Class).
	Name string
	// Rate is the class's Poisson arrival rate.
	Rate float64
	// Demands are per-stage demand distributions.
	Demands []dist.Distribution
	// Deadline is the relative end-to-end deadline distribution.
	Deadline dist.Distribution
	// Importance is the semantic importance of instances.
	Importance float64
}

// validate panics on an impossible class.
func (c ClassSpec) validate(stages int) {
	if c.Rate <= 0 {
		panic(fmt.Sprintf("workload: class %q needs a positive rate", c.Name))
	}
	if len(c.Demands) != stages {
		panic(fmt.Sprintf("workload: class %q has %d demand distributions for %d stages", c.Name, len(c.Demands), stages))
	}
	if c.Deadline == nil {
		panic(fmt.Sprintf("workload: class %q needs a deadline distribution", c.Name))
	}
}

// MixedSource generates a superposition of per-class Poisson streams.
type MixedSource struct {
	names  []string // class names, by class index
	counts []uint64 // arrivals so far, by class index
}

// NewMixedSource schedules all classes' arrivals into offer until
// horizon. Task IDs start at firstID and are unique across classes.
func NewMixedSource(sim *des.Simulator, stages int, classes []ClassSpec, seed int64, firstID task.ID, horizon des.Time, offer func(*task.Task)) *MixedSource {
	if stages <= 0 {
		panic(fmt.Sprintf("workload: mixed source needs stages, got %d", stages))
	}
	if len(classes) == 0 {
		panic("workload: mixed source needs at least one class")
	}
	if offer == nil {
		panic("workload: nil offer sink")
	}
	ms := &MixedSource{names: make([]string, len(classes)), counts: make([]uint64, len(classes))}
	root := dist.NewRNG(seed)
	id := firstID
	nextID := func() task.ID {
		v := id
		id++
		return v
	}
	for k, c := range classes {
		c := c
		c.validate(stages)
		ms.names[k] = c.Name
		stream := root.Split()
		var arrive func()
		at := 0.0
		arrive = func() {
			at += stream.ExpFloat64() / c.Rate
			if at > horizon {
				return
			}
			releaseAt := at
			taskID := nextID()
			sim.At(releaseAt, func() {
				demands := make([]float64, stages)
				for j, d := range c.Demands {
					demands[j] = d.Sample(stream)
				}
				t := task.Chain(taskID, releaseAt, c.Deadline.Sample(stream), demands...)
				t.Class = c.Name
				t.Importance = c.Importance
				ms.counts[k]++
				offer(t)
				arrive()
			})
		}
		arrive()
	}
	return ms
}

// Generated returns per-class arrival counts so far, keyed by class
// name (classes sharing a name share a count; classes without arrivals
// are absent).
func (ms *MixedSource) Generated() map[string]uint64 {
	out := make(map[string]uint64, len(ms.names))
	for k, name := range ms.names {
		if n := ms.counts[k]; n > 0 {
			out[name] += n
		}
	}
	return out
}
