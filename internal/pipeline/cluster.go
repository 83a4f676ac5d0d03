package pipeline

import (
	"fmt"
	"time"

	"feasregion/internal/cluster"
	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/faults"
	"feasregion/internal/metrics"
	"feasregion/internal/obs"
	"feasregion/internal/online"
	"feasregion/internal/task"
	"feasregion/internal/ticker"
)

// replicaAdmitter adapts one cluster replica to the Pipeline Admitter:
// every admission decision goes through the replica (which republishes
// its headroom snapshot), and departures and idle resets flow back so
// the routing signal tracks the replica's real occupancy. Demands and
// deadlines convert from simulated seconds to nanosecond durations; the
// replica's controller reads the simulated clock, so its contributions
// release on the expiry wheel's 1 ms purge granularity.
type replicaAdmitter struct {
	rep     *cluster.Replica
	demands []time.Duration
}

func newReplicaAdmitter(rep *cluster.Replica, stages int) *replicaAdmitter {
	return &replicaAdmitter{rep: rep, demands: make([]time.Duration, stages)}
}

func (a *replicaAdmitter) TryAdmit(t *task.Task) bool {
	if t.Deadline <= 0 {
		return false
	}
	for j := range a.demands {
		a.demands[j] = time.Duration(t.StageDemand(j) * float64(time.Second))
	}
	return a.rep.TryAdmit(online.Request{
		ID:       uint64(t.ID),
		Deadline: time.Duration(t.Deadline * float64(time.Second)),
		Demands:  a.demands,
	})
}

func (a *replicaAdmitter) MarkDeparted(stage int, id task.ID) {
	a.rep.MarkDeparted(stage, uint64(id))
}

func (a *replicaAdmitter) HandleStageIdle(stage int) {
	a.rep.StageIdle(stage)
}

// ClusterOptions configures a simulated replica fleet.
type ClusterOptions struct {
	// Stages is each replica's pipeline length. Required.
	Stages int

	// Replicas is the initial fleet size. Default Scaler.Min (or 1).
	Replicas int

	// Policy, Seed, and Scaler configure the cluster's router and
	// autoscaler (see internal/cluster).
	Policy cluster.Policy
	Seed   uint64
	Scaler cluster.AutoscalerConfig

	// Region overrides each replica's admission region; nil selects the
	// deadline-monotonic independent-task region for Stages stages.
	Region *core.Region

	// Reserved sets per-stage reserved synthetic utilization on every
	// replica. Must be nil or length Stages.
	Reserved []float64

	// Faults, when non-nil, supplies a per-replica fault injector — the
	// hook experiments use to slow one replica and watch routing react.
	// Returning nil leaves that replica healthy.
	Faults func(replica int) *faults.Injector

	// Health, when non-nil, receives every replica's service-time
	// observations tagged with the replica index, and each replica's
	// controller is wired as that replica's scaler — the monitor
	// throttles the replica that degraded, not the fleet.
	Health *obs.Monitor

	// Metrics, when non-nil, registers the cluster-level and
	// per-replica (replica-labeled) series via Cluster.RegisterMetrics.
	Metrics *metrics.Registry
}

// replicaPipe is one replica's simulated data plane.
type replicaPipe struct {
	rep  *cluster.Replica
	pipe *Pipeline
}

// ClusterPipeline drives a fleet of simulated stage pipelines — one per
// cluster replica — behind the cluster router and autoscaler. Each
// offer is placed by the routing policy over the replicas' published
// headroom snapshots and admitted through the chosen replica's own
// feasible-region controller, with rollback to the second candidate
// when the first refuses; replicas the autoscaler adds mid-run join the
// fleet live, and draining replicas finish their admitted tasks before
// removal.
type ClusterPipeline struct {
	sim  *des.Simulator
	opts ClusterOptions
	c    *cluster.Cluster

	// pipes maps replica ID → its pipeline; mutated only from the
	// simulator's event loop (spawn happens on scaler ticks).
	pipes map[int]*replicaPipe

	measuring bool
	offered   uint64
	admitted  uint64
}

// NewCluster builds the fleet on the simulator.
func NewCluster(sim *des.Simulator, opts ClusterOptions) *ClusterPipeline {
	if opts.Stages <= 0 {
		panic(fmt.Sprintf("pipeline: need at least one stage, got %d", opts.Stages))
	}
	cp := &ClusterPipeline{sim: sim, opts: opts, pipes: map[int]*replicaPipe{}}
	cp.c = cluster.New(cluster.Options{
		Policy:  opts.Policy,
		Seed:    opts.Seed,
		Initial: opts.Replicas,
		Scaler:  opts.Scaler,
		Spawn:   cp.spawn,
	})
	cp.c.RegisterMetrics(opts.Metrics)
	return cp
}

// spawn is the cluster's replica factory: it builds the replica's
// admission controller on the simulated clock, wraps it as a cluster
// replica, and attaches a full stage pipeline whose admitter is that
// replica. Called for the initial fleet and again whenever the
// autoscaler grows it.
func (cp *ClusterPipeline) spawn(id int) *cluster.Replica {
	region := core.NewRegion(cp.opts.Stages)
	if cp.opts.Region != nil {
		region = *cp.opts.Region
	}
	ctrl := online.NewWithConfig(region, online.Config{
		Reserved: cp.opts.Reserved,
		Clock:    func() time.Time { return time.Unix(0, int64(cp.sim.Now()*float64(time.Second))) },
	})
	rep := cluster.NewReplica(id, ctrl)
	po := Options{
		Stages:   cp.opts.Stages,
		Admitter: newReplicaAdmitter(rep, cp.opts.Stages),
	}
	if cp.opts.Faults != nil {
		po.Faults = cp.opts.Faults(id)
	}
	if cp.opts.Health != nil {
		po.Health = cp.opts.Health
		cp.opts.Health.SetReplicaScaler(id, ctrl)
	}
	pipe := New(cp.sim, po)
	pipe.healthReplica = id
	cp.pipes[id] = &replicaPipe{rep: rep, pipe: pipe}
	if cp.measuring {
		pipe.BeginMeasurement()
	}
	return rep
}

// Cluster returns the control plane (router, autoscaler, replicas).
func (cp *ClusterPipeline) Cluster() *cluster.Cluster { return cp.c }

// Pipe returns the identified replica's pipeline, or nil if the
// replica never existed.
func (cp *ClusterPipeline) Pipe(id int) *Pipeline {
	if rp, ok := cp.pipes[id]; ok {
		return rp.pipe
	}
	return nil
}

// Offer routes one arriving task: the policy nominates up to two
// candidate replicas, the first is offered the task through its own
// pipeline (admission included), and a refusal rolls the placement back
// to the second. It reports whether any replica admitted the task. Like
// Pipeline.Offer, it keeps only a copy: the caller may reuse t once
// Offer returns.
func (cp *ClusterPipeline) Offer(t *task.Task) bool {
	if cp.measuring {
		cp.offered++
	}
	var buf [2]*cluster.Replica
	k := cp.c.Router().Candidates(buf[:])
	for i := 0; i < k; i++ {
		rp := cp.pipes[buf[i].ID()]
		if rp != nil && rp.pipe.Offer(t) {
			cp.c.Router().CountPlaced(i > 0)
			if cp.measuring {
				cp.admitted++
			}
			return true
		}
	}
	cp.c.Router().CountRejected()
	return false
}

// ScheduleScaler ticks the autoscaler every interval of simulated time
// through until (inclusive) — the sim-side analogue of
// Autoscaler.Start (ticker.Sim).
func (cp *ClusterPipeline) ScheduleScaler(interval, until des.Time) {
	ticker.Sim(cp.sim, interval, until, cp.c.Autoscaler().Tick)
}

// BeginMeasurement starts the statistics window on every replica
// pipeline (replicas spawned later begin measuring on arrival) and
// resets the fleet-level counters.
func (cp *ClusterPipeline) BeginMeasurement() {
	cp.measuring = true
	cp.offered, cp.admitted = 0, 0
	for _, rp := range cp.pipes {
		rp.pipe.BeginMeasurement()
	}
}

// ReplicaMetrics is one replica's slice of the fleet snapshot.
type ReplicaMetrics struct {
	// State is the replica's lifecycle state at snapshot time.
	State cluster.State
	// Placed is the replica's lifetime admission count; Headroom is its
	// last published region headroom.
	Placed   uint64
	Headroom float64
	// Pipeline is the replica pipeline's measurement-window snapshot.
	Pipeline Metrics
}

// ClusterMetrics is the fleet-level measurement snapshot.
type ClusterMetrics struct {
	// Offered and Admitted count tasks over the window at the fleet
	// entrance (an offer rejected by both candidates counts once).
	Offered  uint64
	Admitted uint64
	// Completed and Missed sum the replica windows.
	Completed uint64
	Missed    uint64
	// Router is the lifetime routing counters; Transitions is the
	// autoscaler's action log.
	Router      cluster.RouterStats
	Transitions []cluster.Transition
	// Replicas holds the per-replica slices, keyed by replica ID —
	// every replica that ever measured, including drained ones.
	Replicas map[int]ReplicaMetrics
}

// Snapshot aggregates the fleet's measurement window.
func (cp *ClusterPipeline) Snapshot() ClusterMetrics {
	m := ClusterMetrics{
		Offered:     cp.offered,
		Admitted:    cp.admitted,
		Router:      cp.c.Router().Stats(),
		Transitions: cp.c.Autoscaler().Transitions(),
		Replicas:    map[int]ReplicaMetrics{},
	}
	for id, rp := range cp.pipes {
		pm := rp.pipe.Snapshot()
		h, _ := rp.rep.Snapshot()
		m.Replicas[id] = ReplicaMetrics{
			State:    rp.rep.State(),
			Placed:   rp.rep.Placed(),
			Headroom: h,
			Pipeline: pm,
		}
		m.Completed += pm.Completed
		m.Missed += pm.Missed
	}
	return m
}
