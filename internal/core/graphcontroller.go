package core

import (
	"fmt"
	"slices"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// GraphController is the Theorem 2 admission controller for tasks shaped
// as arbitrary DAGs over a set of resources. Each admitted task's own
// feasibility condition d(f(U_k1)+β_k1, ...) ≤ α must hold, so an
// admission is accepted only if the post-admission utilization point
// satisfies the condition of the incoming task AND of every task shape
// currently active (adding utilization can only tighten their paths).
//
// Theorem 2 changes only the test: the bookkeeping is a chain
// Controller's over one stage per resource (a row per admitted task,
// pooled deadline-decrement timers, departures, the idle reset and the
// release hooks), which the GraphController holds and forwards to. On
// top it keeps the shape set.
//
// The condition reads only a graph's structure — each node's resource
// and the edges — so the controller keeps one entry per distinct active
// structure, with its own copy of the structure and its topological
// order, whatever graph values the callers pass. The test is
// O(distinct active structures × graph size), independent of the number
// of active task instances.
type GraphController struct {
	ctl    *Controller // region state, expiry timers, release hooks, stats
	region Region      // ctl's region; Betas nil means no blocking

	shapes []*shape // distinct active structures

	// Scratch: the increments, the tested utilization point, the
	// longest-path weights, and the in-degrees and topological order of
	// a caller's graph whose structure is not active.
	d, utils, best []float64
	in, ord        []int
}

// shape is one distinct active task structure: the controller's copy of
// a graph's node resources and edge lists (demands zeroed), its
// topological order, and its anchor: the admission whose deadline
// decrement fires last, the one with the latest absolute deadline (on a
// tie the latest admitted, as des fires equal times in scheduling
// order). The shape is active while the anchor's row is (see retire).
type shape struct {
	g     task.Graph
	order []int

	id    task.ID  // the anchor's task ID
	stamp int64    // the anchor row's admission stamp
	until des.Time // the anchor's absolute deadline
}

// NewGraphController builds a controller over the given number of
// resources with urgency-inversion parameter alpha. betas, when non-nil,
// holds one normalized blocking term per resource. Both are validated
// as Region's are.
func NewGraphController(sim *des.Simulator, resources int, alpha float64, betas []float64) *GraphController {
	r := NewRegion(resources).WithAlpha(alpha)
	if betas != nil {
		r = r.WithBetas(betas)
	}
	c := &GraphController{
		ctl:    NewController(sim, r, nil),
		region: r,
		d:      make([]float64, resources),
		utils:  make([]float64, resources),
	}
	// First of the release hooks, so a wait queue's retry never tests
	// against a shape whose last admission has expired.
	c.ctl.OnRelease(func(des.Time) { c.retire() })
	return c
}

// SetReserved installs per-resource reserved synthetic-utilization
// floors for pre-certified critical DAG tasks (the §5 reservation
// workflow applied to Theorem 2). It must be called before the first
// admission; calling it with active contributions panics.
func (c *GraphController) SetReserved(reserved []float64) {
	if len(reserved) != c.region.Stages {
		panic(fmt.Sprintf("core: %d reserved values for %d resources", len(reserved), c.region.Stages))
	}
	st := c.ctl.st
	for i, v := range reserved {
		checkReserved(v)
		if st.Charging(i) > 0 {
			panic("core: SetReserved after admissions began")
		}
	}
	for i, v := range reserved {
		st.SetFloor(i, v)
	}
}

// Stats returns a snapshot of admission counters.
func (c *GraphController) Stats() Stats { return c.ctl.Stats() }

// Utilizations returns the current synthetic utilization per resource.
func (c *GraphController) Utilizations() []float64 { return c.ctl.Utilizations() }

// OnRelease registers fn to run whenever synthetic utilization decreases.
func (c *GraphController) OnRelease(fn func(now des.Time)) { c.ctl.OnRelease(fn) }

// MarkDeparted records that the task has no remaining work on the
// resource, making its contribution there eligible for the idle reset.
func (c *GraphController) MarkDeparted(resource int, id task.ID) { c.ctl.MarkDeparted(resource, id) }

// HandleResourceIdle performs the idle reset for a resource.
func (c *GraphController) HandleResourceIdle(resource int) { c.ctl.HandleStageIdle(resource) }

// deltas returns the per-resource utilization increments of t, summing
// nodes that share a resource, in the controller's scratch. It returns
// nil for a malformed task: no graph, a node off the resources, a
// deadline that is not positive and finite, or a node whose demand
// charges a negative or non-finite increment.
func (c *GraphController) deltas(t *task.Task) []float64 {
	if t.Graph == nil || !validDeadline(t.Deadline) {
		return nil
	}
	d := c.d
	clear(d)
	for _, n := range t.Graph.Nodes {
		v := n.Subtask.Demand / t.Deadline
		if n.Resource < 0 || n.Resource >= c.region.Stages || !chargeable(v) {
			return nil
		}
		d[n.Resource] += v
	}
	return d
}

// WouldAdmit evaluates the Theorem 2 test without committing.
func (c *GraphController) WouldAdmit(t *task.Task) bool {
	d := c.deltas(t)
	if d == nil {
		return false
	}
	ok, _ := c.wouldAdmit(t.Graph, d)
	return ok
}

// TryAdmit runs the test and, on success, commits the task's
// contributions and schedules their removal at its absolute deadline.
// The increments are computed once and shared between test and commit.
func (c *GraphController) TryAdmit(t *task.Task) bool {
	d := c.deltas(t)
	if d == nil {
		c.ctl.stats.Rejected++
		return false
	}
	ok, own := c.wouldAdmit(t.Graph, d)
	if !ok {
		c.ctl.stats.Rejected++
		return false
	}
	c.commit(t, d, own)
	return true
}

// wouldAdmit evaluates the Theorem 2 test for precomputed deltas: g's
// structure first, then every other active structure once. It also
// returns the active shape of g's structure, nil when there is none.
func (c *GraphController) wouldAdmit(g *task.Graph, d []float64) (bool, *shape) {
	for i, u := range c.ctl.st.Utils() {
		c.utils[i] = u + d[i]
	}
	own := c.find(g)
	if own != nil {
		if !c.holds(&own.g, own.order) {
			return false, own
		}
	} else {
		n := len(g.Nodes)
		if cap(c.in) < n {
			c.in, c.ord = make([]int, n), make([]int, 0, n)
		}
		order, err := g.TopoOrderInto(c.in[:n], c.ord[:0])
		if err != nil {
			panic("core: Theorem 2 test: " + err.Error())
		}
		if !c.holds(g, order) {
			return false, nil
		}
	}
	for _, s := range c.shapes {
		if s != own && !c.holds(&s.g, s.order) {
			return false, own
		}
	}
	return true, own
}

// holds reports whether g's Theorem 2 condition holds at the tested
// utilization point, evaluated over g's topological order.
func (c *GraphController) holds(g *task.Graph, order []int) bool {
	if cap(c.best) < len(g.Nodes) {
		c.best = make([]float64, len(g.Nodes))
	}
	w := nodeDelay{g, c.utils, c.region.Betas}
	return g.LongestPathOrder(order, c.best[:len(g.Nodes)], w.of) <= c.region.Alpha
}

// find returns the active shape with g's structure, or nil.
func (c *GraphController) find(g *task.Graph) *shape {
next:
	for _, s := range c.shapes {
		if len(s.g.Nodes) != len(g.Nodes) {
			continue
		}
		for i, n := range g.Nodes {
			if n.Resource != s.g.Nodes[i].Resource || !slices.Equal(g.Edges[i], s.g.Edges[i]) {
				continue next
			}
		}
		return s
	}
	return nil
}

// commitAdmit commits a task WouldAdmit accepted (regionAdmitter).
func (c *GraphController) commitAdmit(t *task.Task) {
	if d := c.deltas(t); d != nil {
		c.commit(t, d, c.find(t.Graph))
	}
}

// commit charges the task's row and schedules its deadline decrement
// through the chain controller, then makes the admission its
// structure's anchor if it expires last, copying the structure when own
// is nil (its first active admission).
func (c *GraphController) commit(t *task.Task, d []float64, own *shape) {
	c.ctl.commit(t, d, task.QualityLevels)
	if own == nil {
		own = newShape(t.Graph)
		c.shapes = append(c.shapes, own)
	} else if t.AbsoluteDeadline() < own.until {
		return
	}
	own.id, own.stamp, own.until = t.ID, c.ctl.seq, t.AbsoluteDeadline()
}

// retire drops every shape whose anchor row is gone: the chain
// controller dropped it in the anchor's deadline decrement, just before
// running the release hooks, so a shape retires at the last expiry of
// its admissions. A shape whose anchor deadline is still ahead stays:
// its row went early because a later admission of the anchor's ID
// (after it departed everywhere) recycled it.
func (c *GraphController) retire() {
	st, now := c.ctl.st, c.ctl.sim.Now()
	live := c.shapes[:0]
	for _, s := range c.shapes {
		if slot, ok := st.Lookup(key(s.id)); s.until > now || ok && st.Stamp(slot) == s.stamp {
			live = append(live, s)
		}
	}
	clear(c.shapes[len(live):])
	c.shapes = live
}

// newShape copies g's structure and computes its topological order.
func newShape(g *task.Graph) *shape {
	s := &shape{}
	for i, nd := range g.Nodes {
		s.g.AddNode(nd.Resource, task.Subtask{})
		s.g.Edges[i] = slices.Clone(g.Edges[i])
	}
	order, err := s.g.TopoOrder()
	if err != nil {
		panic("core: Theorem 2 test: " + err.Error())
	}
	s.order = order
	return s
}
