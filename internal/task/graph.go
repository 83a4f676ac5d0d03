package task

import (
	"fmt"
)

// Node is one subtask in a DAG task graph, allocated to a resource.
// Resources are identified by dense indices into the system's resource set
// (for a pipeline these coincide with stage indices).
type Node struct {
	Resource int
	Subtask  Subtask
}

// Graph is a directed acyclic graph of subtasks (paper §3.3, Figure 3).
// Edges[i] lists the successors of node i; nodes with no predecessors
// become ready at task arrival, and the task departs when every node has
// completed. Multiple nodes may share one resource.
type Graph struct {
	Nodes []Node
	Edges [][]int
}

// NewGraph returns an empty graph builder.
func NewGraph() *Graph { return &Graph{} }

// AddNode appends a subtask on the given resource and returns its index.
func (g *Graph) AddNode(resource int, sub Subtask) int {
	g.Nodes = append(g.Nodes, Node{Resource: resource, Subtask: sub})
	g.Edges = append(g.Edges, nil)
	return len(g.Nodes) - 1
}

// AddEdge adds a precedence constraint from node u to node v.
func (g *Graph) AddEdge(u, v int) {
	g.Edges[u] = append(g.Edges[u], v)
}

// Predecessors returns the in-degree of every node.
func (g *Graph) Predecessors() []int {
	in := make([]int, len(g.Nodes))
	for _, succs := range g.Edges {
		for _, v := range succs {
			in[v]++
		}
	}
	return in
}

// TopoOrder returns a topological ordering of the nodes, or an error if
// the graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.Nodes)
	return g.TopoOrderInto(make([]int, n), make([]int, 0, n))
}

// TopoOrderInto appends the topological order to order and returns it,
// using in (one entry per node) as in-degree scratch: Kahn's algorithm,
// sources in index order, first in first out. It returns an error if the
// graph has a cycle, and allocates nothing when order has room.
func (g *Graph) TopoOrderInto(in, order []int) ([]int, error) {
	clear(in)
	for _, succs := range g.Edges {
		for _, v := range succs {
			in[v]++
		}
	}
	start := len(order)
	for i, d := range in {
		if d == 0 {
			order = append(order, i)
		}
	}
	for h := start; h < len(order); h++ {
		for _, v := range g.Edges[order[h]] {
			if in[v]--; in[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if n := len(order) - start; n != len(g.Nodes) {
		return nil, fmt.Errorf("task: graph has a cycle (%d of %d nodes orderable)", n, len(g.Nodes))
	}
	return order, nil
}

// Validate checks that the graph is a well-formed DAG with valid subtasks
// and in-range edges.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("task: graph has no nodes")
	}
	if len(g.Edges) != len(g.Nodes) {
		return fmt.Errorf("task: graph has %d nodes but %d adjacency rows", len(g.Nodes), len(g.Edges))
	}
	for i, n := range g.Nodes {
		if n.Resource < 0 {
			return fmt.Errorf("task: node %d has negative resource %d", i, n.Resource)
		}
		if err := n.Subtask.Validate(); err != nil {
			return fmt.Errorf("task: node %d: %w", i, err)
		}
	}
	for u, succs := range g.Edges {
		for _, v := range succs {
			if v < 0 || v >= len(g.Nodes) {
				return fmt.Errorf("task: edge %d->%d out of range", u, v)
			}
			if v == u {
				return fmt.Errorf("task: self-loop on node %d", u)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// LongestPath computes the maximum, over all source-to-sink paths, of the
// sum of weight(node) along the path. This is the paper's end-to-end delay
// expression d(L_1, ..., L_M) for a DAG: with weight(i) = L_i it returns
// the worst-case end-to-end delay, and with weight(i) = f(U_{k_i}) + β_{k_i}
// it evaluates the left-hand side of Theorem 2.
//
// The graph must be acyclic; call Validate first. LongestPath panics on a
// cyclic graph because that is a programming error already rejected by
// Validate.
func (g *Graph) LongestPath(weight func(node int) float64) float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic("task: LongestPath on cyclic graph: " + err.Error())
	}
	return g.LongestPathOrder(order, make([]float64, len(g.Nodes)), weight)
}

// LongestPathOrder is LongestPath over a topological order the caller
// already holds, with best (one entry per node) as scratch; it allocates
// nothing.
func (g *Graph) LongestPathOrder(order []int, best []float64, weight func(node int) float64) float64 {
	// best[i] = max path weight ending at node i (inclusive).
	clear(best)
	for _, u := range order {
		best[u] += weight(u)
		for _, v := range g.Edges[u] {
			if best[u] > best[v] {
				best[v] = best[u]
			}
		}
	}
	max := 0.0
	for _, b := range best {
		if b > max {
			max = b
		}
	}
	return max
}
