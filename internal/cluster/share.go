package cluster

import (
	"slices"
	"sync/atomic"
)

// rescanEvery is how many of its own routes a caller makes between
// rescans of its home share.
const rescanEvery = 16

// tokens hands out owner tokens, unique across routers: a rescan
// counts a share's owners by sorting their tokens.
var tokens atomic.Uint64

// hint is one Route caller's PowerOfTwo state, pooled per P: a private
// probe stream, the richer of the two replicas its last placement
// probed (with its index in the slice it was probed from), its home
// share, and the heartbeat by which other callers tell that it still
// routes.
type hint struct {
	rng  uint64
	last *Replica
	at   int

	token  uint64      // unique and never 0: a rescan sorts owners by token
	left   int         // routes until the next rescan
	set    *[]*Replica // the active set share was scanned from
	share  []*Replica  // the replicas this caller owns, in set order
	seen   []ownerBeat // per set index: what the last rescan read
	owners []uint64    // rescan scratch: token<<1 | moved per foreign-owned replica

	// beat counts this caller's routes. Only the caller writes it;
	// other callers read it at their rescans.
	beat atomic.Uint64
}

// ownerBeat is one replica's owner and the owner's heartbeat as a
// rescan read them.
type ownerBeat struct {
	owner *hint
	beat  uint64
}

// newHint builds a caller's state; its probe stream is seeded from the
// router's seeded stream.
func (r *Router) newHint() *hint {
	return &hint{rng: r.splitmix64(), token: tokens.Add(1)}
}

// rescan rebuilds h's home share over the active set *setp. It reads
// every replica's owner and the owner's heartbeat once: a replica is
// h's own, free (no owner, or an owner whose heartbeat has not moved
// since h's last rescan), or held by a live foreign owner. With m live
// owners, h included, h claims free replicas in index order up to
// ⌈n/m⌉, and while it holds fewer than ⌊n/m⌋ it takes one replica from
// an owner holding more than ⌈n/m⌉. It then lists the replicas it
// owns, in set order, as its share.
func (r *Router) rescan(h *hint, setp *[]*Replica) {
	set := *setp
	n := len(set)
	h.left = rescanEvery
	if h.set != setp {
		// A new active set: indices moved, so no earlier reading can
		// show an owner as stalled yet.
		h.set = setp
		h.seen = slices.Grow(h.seen[:0], n)[:n]
		clear(h.seen)
	}
	mine := 0
	h.owners = h.owners[:0]
	for i, rep := range set {
		o := rep.owner.Load()
		var b uint64
		switch s := h.seen[i]; {
		case o == h:
			mine++
		case o != nil:
			b = o.beat.Load()
			moved := uint64(0)
			if s.owner != o || s.beat != b {
				moved = 1
			}
			h.owners = append(h.owners, o.token<<1|moved)
		}
		h.seen[i] = ownerBeat{o, b}
	}
	slices.Sort(h.owners)
	m := 1
	for k, e := range h.owners {
		if e&1 == 1 && (k+1 == len(h.owners) || h.owners[k+1] != e) {
			m++ // the last entry of a live owner's run
		}
	}
	ceil, floor := (n+m-1)/m, n/m
	for i, rep := range set {
		if mine >= ceil {
			break
		}
		if o := h.seen[i].owner; o != h && !h.live(o) && rep.owner.CompareAndSwap(o, h) {
			mine++
			r.handoffs.Add(1)
		}
	}
	if mine < floor {
		if tok := h.crowded(ceil); tok != 0 {
			for i := n - 1; i >= 0; i-- {
				if o := h.seen[i].owner; o != nil && o.token == tok && set[i].owner.CompareAndSwap(o, h) {
					r.handoffs.Add(1)
					break
				}
			}
		}
	}
	h.share = h.share[:0]
	for _, rep := range set {
		if rep.owner.Load() == h {
			h.share = append(h.share, rep)
		}
	}
}

// live reports whether the rescan in progress found owner o alive:
// some replica it owns showed a heartbeat that moved. h.owners holds
// one entry per foreign-owned replica, token<<1 | moved, sorted.
func (h *hint) live(o *hint) bool {
	if o == nil {
		return false
	}
	_, ok := slices.BinarySearch(h.owners, o.token<<1|1)
	return ok
}

// crowded returns the token of a live foreign owner that holds more
// than ceil replicas, or 0 when none does.
func (h *hint) crowded(ceil int) uint64 {
	for k := 0; k < len(h.owners); {
		o, e := h.owners[k]>>1, k+1
		for e < len(h.owners) && h.owners[e]>>1 == o {
			e++
		}
		if e-k > ceil && h.owners[e-1]&1 == 1 {
			return o
		}
		k = e
	}
	return 0
}
