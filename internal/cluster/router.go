package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"feasregion/internal/online"
)

// Policy selects how the router places an arriving request on a
// replica.
type Policy int

// Routing policies.
const (
	// RoundRobin rotates placements over the active replicas in ID
	// order, blind to load. One admission attempt per request.
	RoundRobin Policy = iota
	// HeadroomGreedy scans every active replica's published headroom
	// and tries the richest first, rolling back to the runner-up when
	// the first admit races to a reject. Ties break toward the earlier
	// (lower-ID) replica.
	HeadroomGreedy
	// PowerOfTwo probes two distinct replicas, tries the one with more
	// published headroom, and rolls back to the other when the first
	// admit races to a reject. Equal headroom breaks toward the first
	// probe. O(1) per placement, no scan. Route probes inside the
	// calling P's home share of the replicas, first the richer probe
	// of its last placement (see Router.Route).
	PowerOfTwo
)

// String returns the policy's canonical flag name.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case HeadroomGreedy:
		return "headroom-greedy"
	case PowerOfTwo:
		return "p2c"
	default:
		return "unknown"
	}
}

// Policies lists all routing policies in comparison order.
var Policies = []Policy{RoundRobin, HeadroomGreedy, PowerOfTwo}

// RouterStats counts routing outcomes.
type RouterStats struct {
	// Placed counts requests admitted by the replica the policy chose
	// first; Rollbacks counts requests that were admitted only by the
	// second choice after the first's admit raced to a reject.
	Placed    uint64
	Rollbacks uint64
	// Rejected counts requests no candidate replica would admit.
	Rejected uint64
	// Handoffs counts replica ownership changes between Route callers'
	// home shares under PowerOfTwo: claims of free replicas and
	// takeovers from owners above their fair share. It settles once
	// the callers hold disjoint shares.
	Handoffs uint64
}

// Router places arriving requests on replicas chosen by its policy.
// The active-replica set is a copy-on-write slice swapped atomically,
// so the placement hot path is lock-free and allocation-free; set
// mutations (replicas joining, draining) serialize on an internal
// mutex and publish a fresh slice.
//
// Under PowerOfTwo, equal seeds give identical Candidates sequences;
// Route's probes come from per-P state and home shares (see Route), so
// its sequence depends on the scheduler.
type Router struct {
	policy Policy

	set atomic.Pointer[[]*Replica]
	mu  sync.Mutex // serializes SetReplicas copy-on-write swaps

	rr  atomic.Uint64 // round-robin cursor
	rng atomic.Uint64 // splitmix64 state: Candidates' probes, hint seeds

	hints sync.Pool // *hint, PowerOfTwo's per-P Route state

	placed    atomic.Uint64
	rollbacks atomic.Uint64
	rejected  atomic.Uint64
	handoffs  atomic.Uint64 // home-share ownership changes (see Route)
}

// NewRouter builds a router for the policy. seed determines the p2c
// probe sequence of Candidates (equal seeds give identical sequences
// for deterministic tests) and seeds Route's per-P probe streams.
func NewRouter(policy Policy, seed uint64) *Router {
	if policy != RoundRobin && policy != HeadroomGreedy && policy != PowerOfTwo {
		panic(fmt.Sprintf("cluster: unknown routing policy %d", int(policy)))
	}
	r := &Router{policy: policy}
	r.rng.Store(seed)
	empty := []*Replica{}
	r.set.Store(&empty)
	return r
}

// SetReplicas publishes a new active-replica set. The slice is copied;
// callers pass the replicas eligible for placement (Active state) in ID
// order, which is also the tie-break and round-robin order.
func (r *Router) SetReplicas(reps []*Replica) {
	cp := make([]*Replica, len(reps))
	copy(cp, reps)
	r.mu.Lock()
	r.set.Store(&cp)
	r.mu.Unlock()
}

// golden is splitmix64's stream increment.
const golden = 0x9E3779B97F4A7C15

// splitmix64 advances the router's seeded stream one step and returns
// a mixed word. The atomic add keeps concurrent callers race-free while
// a fixed seed keeps single-threaded sequences deterministic.
func (r *Router) splitmix64() uint64 { return mix(r.rng.Add(golden)) }

// mix is splitmix64's output function.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// other returns a second probe, uniform over the n−1 indices other
// than i, from the high half of the random word w (the low half picks
// a random first probe).
func other(w uint64, i, n int) int {
	return (i + 1 + int((w>>32)%uint64(n-1))) % n
}

// pick fills cand (capacity ≥ 2) with up to two candidate replicas in
// preference order per the policy and returns how many it chose. It
// performs no admission and does not allocate.
func (r *Router) pick(set []*Replica, cand *[2]*Replica) int {
	n := len(set)
	if n == 0 {
		return 0
	}
	if n == 1 {
		cand[0] = set[0]
		return 1
	}
	switch r.policy {
	case RoundRobin:
		cand[0] = set[(r.rr.Add(1)-1)%uint64(n)]
		return 1
	case HeadroomGreedy:
		best, second := 0, -1
		bh := set[0].Headroom()
		var sh float64
		for i := 1; i < n; i++ {
			h := set[i].Headroom()
			switch {
			case h > bh:
				second, sh = best, bh
				best, bh = i, h
			case second < 0 || h > sh:
				second, sh = i, h
			}
		}
		cand[0] = set[best]
		cand[1] = set[second]
		return 2
	default: // PowerOfTwo
		w := r.splitmix64()
		i := int(w % uint64(n))
		i, j := richerFirst(set, i, other(w, i, n))
		cand[0] = set[i]
		cand[1] = set[j]
		return 2
	}
}

// richerFirst orders two probes by published headroom, richer first;
// equal headroom keeps the first probe first.
func richerFirst(set []*Replica, i, j int) (int, int) {
	if set[j].Headroom() > set[i].Headroom() {
		return j, i
	}
	return i, j
}

// Route places the request: the policy nominates up to two candidates,
// the first is tried, and — for the headroom-aware policies — a reject
// that raced the published snapshot rolls the placement back to the
// second choice. It returns the replica that admitted the request, or
// nil and false when every candidate refused. The hot path takes no
// locks and performs no allocations.
//
// Under PowerOfTwo each caller routes inside a home share of the
// active replicas. A caller is the calling P's hint, held in a
// router-owned sync.Pool: a private probe stream, a remembered replica
// and a heartbeat that counts its routes. Each replica records the
// caller whose share holds it. Every 16 of its routes, and at once
// when the active set changes, a caller rescans those owner words: it
// claims free replicas up to ⌈n/m⌉ for m live owners, itself
// included, and while it holds fewer than ⌊n/m⌋ it takes one replica
// per rescan from an owner above that ceiling. A replica is free when
// it has no owner or when its owner's heartbeat has not moved between
// two consecutive rescans of the scanner, so liveness follows the
// callers' progress, not a timer. The region test reads only the
// replica's own ledgers, so no placement needs a replica outside the
// caller's share, and each replica's lock, table and wheel stay on
// one caller's core instead of moving between cores with every other
// request. Stats().Handoffs counts the ownership changes.
//
// Inside the share the probes are p2c with memory: the first probe is
// the replica the caller remembers, when it still sits at its
// remembered index of the share, else a random one; the second is
// random and distinct. The richer goes first, as in Candidates. After
// a placement the caller remembers whichever of its two probes then
// has more published headroom, not the one that admitted (the rule of
// Mitzenmacher, Prabhakar and Shah, "Load Balancing with Memory", FOCS
// 2002, which keeps p2c's balance). A caller whose share holds fewer
// than two replicas (more callers than n/2) probes the whole active
// set by the same rule. A lone caller owns every replica in index
// order, so its probes are those of p2c with memory over the whole
// set. Candidates, the simulated fleet's single-threaded path, keeps
// drawing both probes from the router's seeded stream and keeps no
// share, so its decisions stay reproducible; Route draws from that
// stream only to seed a new hint, when the pool has none to give.
func (r *Router) Route(req online.Request) (*Replica, bool) {
	setp := r.set.Load()
	if r.policy != PowerOfTwo || len(*setp) < 2 {
		var cand [2]*Replica
		k := r.pick(*setp, &cand)
		if i := r.admit(cand[:k], req); i >= 0 {
			return cand[i], true
		}
		return nil, false
	}
	h, _ := r.hints.Get().(*hint)
	if h == nil {
		h = r.newHint()
	}
	rep, ok := r.routeShare(h, setp, req)
	r.hints.Put(h)
	return rep, ok
}

// routeShare is Route's PowerOfTwo path for the caller h over the
// active set *setp, which holds at least two replicas.
func (r *Router) routeShare(h *hint, setp *[]*Replica, req online.Request) (*Replica, bool) {
	h.beat.Add(1)
	if h.left--; h.left <= 0 || h.set != setp {
		r.rescan(h, setp)
	}
	set := h.share
	if len(set) < 2 {
		set = *setp
	}
	h.rng += golden
	w, n := mix(h.rng), len(set)
	i := h.at
	if i >= n || set[i] != h.last {
		i = int(w % uint64(n))
	}
	i, j := richerFirst(set, i, other(w, i, n))
	cand := [2]*Replica{set[i], set[j]}
	k := r.admit(cand[:], req)
	if k < 0 {
		return nil, false
	}
	h.at, _ = richerFirst(set, i, j)
	h.last = set[h.at]
	return cand[k], true
}

// admit tries the candidates in preference order and counts the
// outcome. It returns the index of the candidate that admitted the
// request, or −1 when every candidate refused.
func (r *Router) admit(cand []*Replica, req online.Request) int {
	for i, c := range cand {
		if c.TryAdmit(req) {
			r.placed.Add(1)
			if i > 0 {
				r.rollbacks.Add(1)
			}
			return i
		}
	}
	r.rejected.Add(1)
	return -1
}

// Candidates fills buf with the policy's current candidate replicas in
// preference order and returns how many it chose, without admitting —
// for integrations (e.g. the simulated cluster pipeline) that run
// admission through their own task-shaped path and implement the
// rollback themselves. buf must hold at least two entries. Under
// PowerOfTwo both probes come from the router's seeded stream and
// Candidates keeps no memory, so a single-threaded caller sees the same
// sequence for the same seed (Route moves the stream only when it seeds
// a new hint).
func (r *Router) Candidates(buf []*Replica) int {
	if len(buf) < 2 {
		panic(fmt.Sprintf("cluster: candidate buffer of %d needs at least 2 entries", len(buf)))
	}
	var cand [2]*Replica
	k := r.pick(*r.set.Load(), &cand)
	copy(buf, cand[:k])
	return k
}

// CountPlaced records an externally performed placement outcome —
// the bookkeeping mirror of Route for Candidates-based integrations.
// rollback marks a placement that succeeded only on the second
// candidate.
func (r *Router) CountPlaced(rollback bool) {
	r.placed.Add(1)
	if rollback {
		r.rollbacks.Add(1)
	}
}

// CountRejected records an externally observed all-candidates reject.
func (r *Router) CountRejected() { r.rejected.Add(1) }

// Stats returns a snapshot of the routing counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Placed:    r.placed.Load(),
		Rollbacks: r.rollbacks.Load(),
		Rejected:  r.rejected.Load(),
		Handoffs:  r.handoffs.Load(),
	}
}
