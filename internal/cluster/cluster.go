package cluster

import (
	"fmt"
	"sync"

	"feasregion/internal/core"
	"feasregion/internal/metrics"
	"feasregion/internal/online"
)

// Options configures a Cluster. Region is required unless Spawn is
// provided.
type Options struct {
	// Region is the per-replica feasible region (every replica enforces
	// its own copy of the bound; the fleet's capacity is the sum).
	Region core.Region

	// Online configures each replica's admission controller (clock,
	// reserved floors). The zero value is the production default: the
	// monotonic system clock and no floors.
	Online online.Config

	// Policy selects the routing policy. Default RoundRobin (the zero
	// value); headroom-aware fleets set HeadroomGreedy or PowerOfTwo.
	Policy Policy

	// Seed drives the PowerOfTwo probe sequence (fixed seeds give
	// deterministic Router.Candidates sequences; Route's per-P probes
	// also depend on the scheduler).
	Seed uint64

	// Initial is the starting replica count. Default Scaler.Min (or 1).
	Initial int

	// Scaler configures the admission-driven autoscaler. The scaler is
	// always constructed; fleets that want a fixed size simply never
	// tick it, or set Min = Max = Initial.
	Scaler AutoscalerConfig

	// Spawn overrides the replica factory — integrations that attach
	// more than a controller to each replica (e.g. the simulated
	// cluster pipeline builds a full stage pipeline per replica) supply
	// the closure; id is fleet-unique and monotone. When nil, replicas
	// wrap online.NewWithConfig(Region, Online).
	Spawn func(id int) *Replica
}

// Stats aggregates cluster-level counters.
type Stats struct {
	// Router counters (placements, rollbacks, rejects, share handoffs).
	Router RouterStats
	// Active and Draining are current fleet composition counts;
	// Spawned and Removed are lifetime totals.
	Active   int
	Draining int
	Spawned  uint64
	Removed  uint64
}

// Cluster is the control plane of a replicated admission fleet: it owns
// the replicas, publishes the active set to its router, and exposes the
// autoscaler that grows and drains the fleet on admission headroom.
// The data plane — Route, then per-replica admits, releases, and
// departures — never takes the cluster lock.
type Cluster struct {
	opts   Options
	router *Router
	scaler *Autoscaler

	mu       sync.Mutex
	replicas []*Replica // live replicas (Active + Draining), ID order
	nextID   int
	spawned  uint64
	removed  uint64
	reg      *metrics.Registry
}

// New builds the fleet at its initial size with the routing and scaling
// plumbing wired.
func New(opts Options) *Cluster {
	opts.Scaler = opts.Scaler.withDefaults()
	if opts.Initial == 0 {
		opts.Initial = opts.Scaler.Min
	}
	if opts.Initial < opts.Scaler.Min || opts.Initial > opts.Scaler.Max {
		panic(fmt.Sprintf("cluster: initial size %d outside scaler bounds [%d, %d]",
			opts.Initial, opts.Scaler.Min, opts.Scaler.Max))
	}
	if opts.Spawn == nil && opts.Region.Stages <= 0 {
		panic("cluster: Options.Region required (or supply Spawn)")
	}
	c := &Cluster{
		opts:   opts,
		router: NewRouter(opts.Policy, opts.Seed),
	}
	c.scaler = newAutoscaler(opts.Scaler, c)
	c.mu.Lock()
	for i := 0; i < opts.Initial; i++ {
		c.spawnLocked()
	}
	c.publishLocked()
	c.mu.Unlock()
	return c
}

// Router returns the placement router.
func (c *Cluster) Router() *Router { return c.router }

// Autoscaler returns the admission-driven scaler. Drive it with Tick
// (deterministic) or Start (wall clock).
func (c *Cluster) Autoscaler() *Autoscaler { return c.scaler }

// Route places one request through the router — the cluster's
// admission entry point. The returned replica owns the request's
// lifecycle: Release, MarkDeparted, and StageIdle go to it.
func (c *Cluster) Route(req online.Request) (*Replica, bool) {
	return c.router.Route(req)
}

// spawnLocked creates one replica and registers its metrics. Callers
// must hold mu and publish afterwards.
func (c *Cluster) spawnLocked() *Replica {
	id := c.nextID
	c.nextID++
	var rep *Replica
	if c.opts.Spawn != nil {
		rep = c.opts.Spawn(id)
		if rep == nil {
			c.nextID--
			return nil
		}
	} else {
		rep = NewReplica(id, online.NewWithConfig(c.opts.Region, c.opts.Online))
	}
	c.replicas = append(c.replicas, rep)
	c.spawned++
	c.registerReplicaMetricsLocked(rep)
	return rep
}

// publishLocked pushes the Active subset (ID order) to the router.
func (c *Cluster) publishLocked() {
	active := make([]*Replica, 0, len(c.replicas))
	for _, rep := range c.replicas {
		if rep.State() == Active {
			active = append(active, rep)
		}
	}
	c.router.SetReplicas(active)
}

// Replicas returns a copy of every live replica (active and draining).
func (c *Cluster) Replicas() []*Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Replica(nil), c.replicas...)
}

// Active returns a copy of the replicas currently receiving placements.
func (c *Cluster) Active() []*Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Replica, 0, len(c.replicas))
	for _, rep := range c.replicas {
		if rep.State() == Active {
			out = append(out, rep)
		}
	}
	return out
}

// Draining returns a copy of the replicas draining toward removal.
func (c *Cluster) Draining() []*Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Replica, 0, 1)
	for _, rep := range c.replicas {
		if rep.State() == Draining {
			out = append(out, rep)
		}
	}
	return out
}

// ActiveCount returns how many replicas currently receive placements.
func (c *Cluster) ActiveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, rep := range c.replicas {
		if rep.State() == Active {
			n++
		}
	}
	return n
}

// grow adds placement capacity: a draining replica is returned to
// service when one exists (fresh=false), otherwise a new replica is
// spawned unless the fleet is at max. The scaler calls it.
func (c *Cluster) grow(max int) (rep *Replica, fresh bool, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		if r.State() == Draining {
			r.setState(Active)
			c.publishLocked()
			return r, false, true
		}
	}
	if len(c.replicas) >= max {
		return nil, false, false
	}
	r := c.spawnLocked()
	if r == nil {
		return nil, false, false
	}
	c.publishLocked()
	return r, true, true
}

// Drain manually puts the identified replica into the draining state;
// it reports whether the replica was found and active.
func (c *Cluster) Drain(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rep := range c.replicas {
		if rep.ID() == id && rep.State() == Active {
			rep.setState(Draining)
			c.publishLocked()
			return true
		}
	}
	return false
}

// drainOne picks the cheapest active replica to drain — the one with
// the smallest published region value, ties toward the youngest — and
// drains it, keeping at least min active.
func (c *Cluster) drainOne(min int) (*Replica, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var victim *Replica
	active := 0
	var vv float64
	for _, rep := range c.replicas {
		if rep.State() != Active {
			continue
		}
		active++
		_, v := rep.Snapshot()
		if victim == nil || v < vv || (v == vv && rep.ID() > victim.ID()) {
			victim, vv = rep, v
		}
	}
	if active <= min || victim == nil {
		return nil, false
	}
	victim.setState(Draining)
	c.publishLocked()
	return victim, true
}

// remove retires a drained replica; it reports whether the replica was
// still a member.
func (c *Cluster) remove(rep *Replica) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.replicas {
		if r == rep {
			copy(c.replicas[i:], c.replicas[i+1:])
			c.replicas[len(c.replicas)-1] = nil
			c.replicas = c.replicas[:len(c.replicas)-1]
			rep.setState(Stopped)
			c.removed++
			c.publishLocked()
			return true
		}
	}
	return false
}

// Stats returns a snapshot of the cluster counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	spawned, removed := c.spawned, c.removed
	active, draining := 0, 0
	for _, rep := range c.replicas {
		switch rep.State() {
		case Active:
			active++
		case Draining:
			draining++
		}
	}
	c.mu.Unlock()
	return Stats{
		Router:   c.router.Stats(),
		Active:   active,
		Draining: draining,
		Spawned:  spawned,
		Removed:  removed,
	}
}

// RegisterMetrics describes the fleet to the registry: cluster-level
// gauges and counters, plus per-replica series carrying the replica
// label — registered now for existing replicas and at spawn time for
// replicas the scaler adds later. Series of a removed replica keep
// reporting (state "stopped", zero utilization); the registry has no
// unregistration, matching Prometheus practice of letting series go
// stale. A nil registry is a no-op.
func (c *Cluster) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = r
	r.GaugeFunc("feasregion_cluster_active_replicas", "replicas currently receiving placements",
		func() float64 { return float64(c.ActiveCount()) })
	r.GaugeFunc("feasregion_cluster_draining_replicas", "replicas draining toward removal",
		func() float64 { return float64(len(c.Draining())) })
	r.CounterFunc("feasregion_cluster_placed_total", "requests admitted by a routed replica",
		func() float64 { return float64(c.router.Stats().Placed) })
	r.CounterFunc("feasregion_cluster_rollbacks_total", "placements that fell back to the second candidate",
		func() float64 { return float64(c.router.Stats().Rollbacks) })
	r.CounterFunc("feasregion_cluster_route_rejects_total", "requests no candidate replica admitted",
		func() float64 { return float64(c.router.Stats().Rejected) })
	r.CounterFunc("feasregion_cluster_share_handoffs_total", "replica ownership changes between Route callers' home shares",
		func() float64 { return float64(c.router.Stats().Handoffs) })
	for _, rep := range c.replicas {
		c.registerReplicaMetricsLocked(rep)
	}
}

// registerReplicaMetricsLocked exports one replica's gauges under the
// replica label. Idempotent per replica (the registry replaces func
// series in place).
func (c *Cluster) registerReplicaMetricsLocked(rep *Replica) {
	if c.reg == nil {
		return
	}
	label := metrics.Replica(rep.ID())
	c.reg.GaugeFunc("feasregion_cluster_replica_headroom", "per-replica published region headroom",
		func() float64 { h, _ := rep.Snapshot(); return h }, label)
	c.reg.GaugeFunc("feasregion_cluster_replica_value", "per-replica published region value Σ f(U_j)",
		func() float64 { _, v := rep.Snapshot(); return v }, label)
	c.reg.GaugeFunc("feasregion_cluster_replica_state", "replica lifecycle state (0 active, 1 draining, 2 stopped)",
		func() float64 { return float64(rep.State()) }, label)
	c.reg.CounterFunc("feasregion_cluster_replica_placed_total", "admissions routed to the replica",
		func() float64 { return float64(rep.Placed()) }, label)
}
