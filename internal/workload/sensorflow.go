package workload

import (
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// SensorFlow builds the §5 back-end data-flow task graph: "many of the
// tactical applications are implemented in a data flow architecture
// consisting of multiple subtasks that may or may not be colocated on
// the same processor ... 4-6 subtasks with possible branching and
// rejoining". The shape is
//
//	ingest -> {classify, track} -> fuse -> display
//
// over five resources, with optional extra parallel analysis branches.
type SensorFlowSpec struct {
	// Resources assigns the five roles to resource indices:
	// [ingest, classify, track, fuse, display].
	Resources [5]int
	// MeanDemands are mean computation times per role; actual demands
	// are exponential around them.
	MeanDemands [5]float64
	// ExtraBranches adds this many additional parallel analysis nodes
	// between ingest and fuse, cycling over the classify/track
	// resources (making 6-node flows for ExtraBranches = 1).
	ExtraBranches int
}

// DefaultSensorFlow returns a 5-subtask flow over resources 0..4.
func DefaultSensorFlow() SensorFlowSpec {
	return SensorFlowSpec{
		Resources:   [5]int{0, 1, 2, 3, 4},
		MeanDemands: [5]float64{0.4, 0.8, 0.8, 0.3, 0.5},
	}
}

// Build draws one flow instance's graph with randomized demands.
func (s SensorFlowSpec) Build(g *dist.RNG) *task.Graph {
	gr := task.NewGraph()
	draw := func(mean float64) task.Subtask {
		return task.NewSubtask(g.ExpFloat64() * mean)
	}
	ingest := gr.AddNode(s.Resources[0], draw(s.MeanDemands[0]))
	fuseSub := draw(s.MeanDemands[3])
	classify := gr.AddNode(s.Resources[1], draw(s.MeanDemands[1]))
	track := gr.AddNode(s.Resources[2], draw(s.MeanDemands[2]))
	branches := []int{classify, track}
	for b := 0; b < s.ExtraBranches; b++ {
		res := s.Resources[1+b%2]
		branches = append(branches, gr.AddNode(res, draw(s.MeanDemands[1+b%2])))
	}
	fuse := gr.AddNode(s.Resources[3], fuseSub)
	display := gr.AddNode(s.Resources[4], draw(s.MeanDemands[4]))
	for _, b := range branches {
		gr.AddEdge(ingest, b)
		gr.AddEdge(b, fuse)
	}
	gr.AddEdge(fuse, display)
	return gr
}
