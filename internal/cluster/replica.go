package cluster

import (
	"math"
	"runtime"
	"sync/atomic"

	"feasregion/internal/online"
)

// State is a replica's position in the placement lifecycle.
type State int32

// Replica lifecycle states. Active replicas receive placements;
// Draining replicas stop receiving new work but keep serving what they
// already admitted; Stopped replicas have drained and left the fleet.
const (
	Active State = iota
	Draining
	Stopped
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Replica wraps one feasible-region admission controller — a full
// per-replica data plane — behind the cluster's
// placement lifecycle, and publishes a seqlock-mirrored headroom
// snapshot the router reads lock-free.
//
// The snapshot (region headroom and region value, mutually consistent)
// is republished after every state-changing operation through the
// replica and on every Refresh; reads never allocate. An admit, a
// release and an idle reset each publish the value their controller
// computed inside the operation's own critical section, so none costs
// a second lock round; the autoscaler tick publishes through Refresh.
// Concurrent publishers serialize on the seqlock. Staleness between
// publishes is tolerated by design: routing policies treat the
// snapshot as a hint and roll back to their second choice when a
// placement races a reject.
type Replica struct {
	id    int
	ctrl  *online.Controller
	state atomic.Int32

	// Seqlock mirror of (headroom, value): seq is even when consistent.
	// A publisher claims the odd state by CompareAndSwap from an even
	// seq (so publishers exclude each other), stores both float bit
	// patterns, and makes it even again. Readers retry torn reads.
	seq          atomic.Uint64
	headroomBits atomic.Uint64
	valueBits    atomic.Uint64

	// placed counts successful admissions routed through this replica
	// over its lifetime — the router's balance evidence.
	placed atomic.Uint64

	// owner is the Route caller whose home share holds the replica
	// (nil when none; see Router.Route). Callers read it only at their
	// rescans; the pads keep it off the lines every admit writes.
	_     [64]byte
	owner atomic.Pointer[hint]
	_     [56]byte
}

// NewReplica wraps an admission controller as a cluster replica. The
// replica starts Active with a freshly published snapshot.
func NewReplica(id int, ctrl *online.Controller) *Replica {
	if ctrl == nil {
		panic("cluster: replica needs a controller")
	}
	r := &Replica{id: id, ctrl: ctrl}
	r.Refresh()
	return r
}

// ID returns the replica's fleet-unique identifier.
func (r *Replica) ID() int { return r.id }

// Controller returns the wrapped admission controller.
func (r *Replica) Controller() *online.Controller { return r.ctrl }

// State returns the replica's current lifecycle state.
func (r *Replica) State() State { return State(r.state.Load()) }

// setState transitions the lifecycle; Cluster and Autoscaler own the
// legal transition order (Active ↔ Draining → Stopped).
func (r *Replica) setState(s State) { r.state.Store(int32(s)) }

// TryAdmit tests the request against this replica's feasible region and
// commits it on success, then publishes the snapshot from the region
// value the admit computed. A replica that is not Active refuses every
// request (placement has been stopped), which is what lets a routing
// policy's rollback observe a drain that raced its probe.
func (r *Replica) TryAdmit(req online.Request) bool {
	if State(r.state.Load()) != Active {
		return false
	}
	ok, value := r.ctrl.TryAdmitValue(req)
	if !ok {
		return false
	}
	r.placed.Add(1)
	r.publish(value, r.ctrl.Bound())
	return true
}

// Release drops the request's contribution on all stages immediately
// and republishes the snapshot from the region value the release
// computed under the same lock.
func (r *Replica) Release(id uint64) {
	r.publish(r.ctrl.Release(id), r.ctrl.Bound())
}

// MarkDeparted records that the request finished its work at the stage.
func (r *Replica) MarkDeparted(stage int, id uint64) {
	r.ctrl.MarkDeparted(stage, id)
}

// StageIdle performs the stage's idle reset and republishes the
// snapshot (the reset may have freed capacity the router should see)
// from the region value the reset computed under the same lock.
func (r *Replica) StageIdle(stage int) {
	r.publish(r.ctrl.StageIdle(stage), r.ctrl.Bound())
}

// Refresh recomputes the replica's region headroom and value from the
// controller and publishes them through the seqlock. The autoscaler
// calls it on every tick so deadline expiries (which free capacity
// inside the controller without a callback) become visible to routing
// within one tick.
func (r *Replica) Refresh() {
	value, bound := r.ctrl.RegionValue()
	r.publish(value, bound)
}

// publish stores (bound − value, value) under the seqlock. The
// CompareAndSwap from an even seq makes the odd state one publisher's
// at a time: two plain increments from concurrent publishers could
// leave seq even around a half-written pair.
func (r *Replica) publish(value, bound float64) {
	for {
		if s := r.seq.Load(); s&1 == 0 && r.seq.CompareAndSwap(s, s+1) {
			break
		}
		runtime.Gosched()
	}
	r.headroomBits.Store(math.Float64bits(bound - value))
	r.valueBits.Store(math.Float64bits(value))
	r.seq.Add(1) // even: consistent again
}

// Snapshot returns the last published (headroom, value) pair without
// locking or allocating. A read torn by a concurrent publish is
// retried until it sees one publish's pair whole.
func (r *Replica) Snapshot() (headroom, value float64) {
	for {
		s := r.seq.Load()
		if s&1 == 0 {
			h := math.Float64frombits(r.headroomBits.Load())
			v := math.Float64frombits(r.valueBits.Load())
			if r.seq.Load() == s {
				return h, v
			}
		}
		runtime.Gosched()
	}
}

// Headroom returns the last published region headroom (bound minus
// value): how much more admission mass this replica can absorb.
func (r *Replica) Headroom() float64 {
	h, _ := r.Snapshot()
	return h
}

// Placed returns how many admissions were routed through this replica.
func (r *Replica) Placed() uint64 { return r.placed.Load() }

// Drained reports whether a draining replica has emptied: every
// admitted contribution has departed or expired, so the replica can be
// removed without abandoning work. eps guards float dust in the region
// value.
func (r *Replica) Drained(eps float64) bool {
	if State(r.state.Load()) != Draining {
		return false
	}
	r.Refresh()
	_, v := r.Snapshot()
	return v <= eps
}
