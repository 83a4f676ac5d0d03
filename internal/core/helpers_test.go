package core

import (
	"feasregion/internal/des"
	"feasregion/internal/task"
)

// newTestSim returns a fresh simulator for controller tests.
func newTestSim() *des.Simulator { return des.New() }

// chainGraph builds the degenerate pipeline graph: node j runs on
// resource j with the given demands, with edges 0->1->...->n-1.
func chainGraph(demands ...float64) *task.Graph {
	g := task.NewGraph()
	for j, d := range demands {
		g.AddNode(j, task.NewSubtask(d))
		if j > 0 {
			g.AddEdge(j-1, j)
		}
	}
	return g
}
