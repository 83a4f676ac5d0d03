package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/metrics"
	"feasregion/internal/online"
)

// Except for TestShareConcurrentCallers, the tests below drive Route's
// PowerOfTwo path with explicit callers (hints) from one goroutine, so
// that the interleaving, and with it every ownership change, is
// deterministic.

// expiringCluster builds the BenchmarkClusterRouteExpiring fleet: four
// p2c replicas of three stages on the given virtual clock.
func expiringCluster(clock *atomic.Int64, initial, max int) *Cluster {
	return New(Options{
		Region:  core.NewRegion(3),
		Online:  online.Config{Clock: func() time.Time { return time.Unix(0, clock.Load()) }},
		Policy:  PowerOfTwo,
		Seed:    7,
		Initial: initial,
		Scaler:  AutoscalerConfig{Min: 1, Max: max},
	})
}

// expiringReq returns request id of the BenchmarkClusterRouteExpiring
// stream and advances the clock to its arrival, id·200 µs (a monotone
// max, so concurrent callers never step it backwards).
func expiringReq(clock *atomic.Int64, id uint64, demands []time.Duration) online.Request {
	at := int64(id) * 200 * int64(time.Microsecond)
	for cur := clock.Load(); at > cur && !clock.CompareAndSwap(cur, at); cur = clock.Load() {
	}
	deadline := time.Duration(5+id*7919%40) * time.Millisecond
	for j := range demands {
		demands[j] = deadline / time.Duration(30+(id>>j)%50)
	}
	return online.Request{ID: id, Deadline: deadline, Demands: demands}
}

// routeAs routes req as the caller h.
func routeAs(c *Cluster, h *hint, req online.Request) (*Replica, bool) {
	return c.router.routeShare(h, c.router.set.Load(), req)
}

// owned returns how many of the active replicas h owns.
func owned(c *Cluster, h *hint) int {
	k := 0
	for _, rep := range c.Active() {
		if rep.owner.Load() == h {
			k++
		}
	}
	return k
}

// TestShareLoneCallerDigest: a lone caller owns every replica in index
// order, so over the BenchmarkClusterRouteExpiring stream it places
// every request where p2c with memory over the whole set placed it
// before home shares existed. The digest folds (request ID, replica ID
// or −1) and was recorded from that router's Route on one P.
func TestShareLoneCallerDigest(t *testing.T) {
	const want = 0xf95bfbc73b2bb547
	var clock atomic.Int64
	c := expiringCluster(&clock, 4, 4)
	h := c.router.newHint()
	dg := fnv.New64a()
	var b [16]byte
	demands := make([]time.Duration, 3)
	for id := uint64(1); id <= 100_000; id++ {
		rep, ok := routeAs(c, h, expiringReq(&clock, id, demands))
		at := int64(-1)
		if ok {
			at = int64(rep.ID())
		}
		binary.LittleEndian.PutUint64(b[:8], id)
		binary.LittleEndian.PutUint64(b[8:], uint64(at))
		dg.Write(b[:])
	}
	if got := dg.Sum64(); got != want {
		t.Fatalf("lone caller placement digest %016x, want %016x", got, uint64(want))
	}
	if st := c.Stats().Router; st.Handoffs != 4 || st.Placed != 45622 {
		t.Fatalf("router stats %+v, want 4 handoffs (one claim per replica) and 45622 placed", st)
	}
}

// TestShareTwoCallersConverge: two interleaved callers end with two
// replicas each, disjoint, and then no replica changes owner again.
// When one caller stops, the other takes its replicas within two of its
// own rescans; when it comes back, it takes back its half within two
// of its rescans.
func TestShareTwoCallersConverge(t *testing.T) {
	var clock atomic.Int64
	c := expiringCluster(&clock, 4, 4)
	a, b := c.router.newHint(), c.router.newHint()
	demands := make([]time.Duration, 3)
	var id uint64
	route := func(callers ...*hint) {
		for _, h := range callers {
			id++
			routeAs(c, h, expiringReq(&clock, id, demands))
		}
	}
	for n := 0; n < 4*rescanEvery; n++ {
		route(a, b)
	}
	if owned(c, a) != 2 || owned(c, b) != 2 || len(a.share) != 2 || len(b.share) != 2 {
		t.Fatalf("shares %d/%d (lists %d/%d), want 2/2", owned(c, a), owned(c, b), len(a.share), len(b.share))
	}
	for _, rep := range a.share {
		for _, other := range b.share {
			if rep == other {
				t.Fatalf("replica %d is in both shares", rep.ID())
			}
		}
	}
	// Settled, each caller places only on its own share.
	settled := c.Stats().Router.Handoffs
	for n := 0; n < 10_000; n++ {
		for _, h := range []*hint{a, b} {
			id++
			rep, ok := routeAs(c, h, expiringReq(&clock, id, demands))
			if ok && rep.owner.Load() != h {
				t.Fatalf("request %d placed on replica %d outside its caller's share", id, rep.ID())
			}
		}
	}
	if got := c.Stats().Router.Handoffs; got != settled {
		t.Fatalf("handoffs grew from %d to %d after the shares settled", settled, got)
	}
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("\nfeasregion_cluster_share_handoffs_total %d\n", settled); !bytes.Contains(page.Bytes(), []byte(line)) {
		t.Fatalf("metrics page lacks %q", line[1:])
	}

	// b stops: a's rescans come every rescanEvery of its own routes.
	for n := 0; n < 2*rescanEvery; n++ {
		route(a)
	}
	if owned(c, a) != 4 || len(a.share) != 4 {
		t.Fatalf("two rescans after the other caller stopped, a owns %d (share %d), want 4", owned(c, a), len(a.share))
	}
	if got := c.Stats().Router.Handoffs; got != settled+2 {
		t.Fatalf("handoffs %d after the takeover, want %d", got, settled+2)
	}

	// b comes back: a still routes, so it holds its share; b takes
	// one replica per rescan until it holds ⌊4/2⌋.
	for n := 0; n < 2*rescanEvery; n++ {
		route(a, b)
	}
	if owned(c, a) != 2 || owned(c, b) != 2 {
		t.Fatalf("after b's return shares are %d/%d, want 2/2", owned(c, a), owned(c, b))
	}
}

// TestShareFollowsSetChange: a caller rebuilds its share at its first
// route after the active set changes, not at its next periodic rescan,
// so a replica that left the set gets no probe even while it stays
// Active and richest.
func TestShareFollowsSetChange(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	reps := []*Replica{newTestReplica(t, 0, clk), newTestReplica(t, 1, clk), newTestReplica(t, 2, clk), newTestReplica(t, 3, clk)}
	for i, rep := range reps[1:] {
		if !rep.TryAdmit(req(uint64(1<<40+i), 0.3)) {
			t.Fatal("setup admit refused")
		}
	}
	r := NewRouter(PowerOfTwo, 42)
	r.SetReplicas(reps)
	h := r.newHint()
	var id uint64
	for n := 0; n < rescanEvery/2; n++ {
		id++
		if _, ok := r.routeShare(h, r.set.Load(), req(id, 1e-4)); !ok {
			t.Fatalf("route %d refused", id)
		}
	}
	r.SetReplicas(reps[1:])
	for n := 0; n < rescanEvery; n++ {
		id++
		rep, ok := r.routeShare(h, r.set.Load(), req(id, 1e-4))
		if !ok || rep == reps[0] {
			t.Fatalf("route %d after the set change landed on %v (ok %v), want one of replicas 1–3", id, rep, ok)
		}
	}
	if len(h.share) != 3 {
		t.Fatalf("share holds %d replicas after the set change, want 3", len(h.share))
	}
}

// TestShareCallersAcceptUnderScaling: 2 and 8 interleaved callers (8 on
// four replicas hold one-replica shares and fall back to the whole
// set) route the expiring stream while the fleet grows by one replica
// and later drains one. The accept ratio stays within the
// online-wall tolerance max(0.005, 2/√n) of a lone caller's over the
// same stream and fleet changes, and every replica that stays active
// receives placements after the grow.
func TestShareCallersAcceptUnderScaling(t *testing.T) {
	const n = 60_000
	run := func(callers int) (float64, *Cluster, map[*Replica]uint64) {
		var clock atomic.Int64
		c := expiringCluster(&clock, 4, 5)
		hs := make([]*hint, callers)
		for k := range hs {
			hs[k] = c.router.newHint()
		}
		demands := make([]time.Duration, 3)
		var placedAtGrow map[*Replica]uint64
		for id := uint64(1); id <= n; id++ {
			switch id {
			case n / 3:
				if _, _, ok := c.grow(5); !ok {
					t.Fatal("grow refused")
				}
				placedAtGrow = map[*Replica]uint64{}
				for _, rep := range c.Active() {
					placedAtGrow[rep] = rep.Placed()
				}
			case 2 * n / 3:
				if _, ok := c.drainOne(1); !ok {
					t.Fatal("drain refused")
				}
			}
			// A hashed caller per request: strict alternation would
			// hand each caller the stream's odd or even IDs, whose
			// deadlines differ systematically.
			routeAs(c, hs[mix(id*golden)%uint64(callers)], expiringReq(&clock, id, demands))
		}
		st := c.Stats().Router
		return float64(st.Placed) / n, c, placedAtGrow
	}
	ref, _, _ := run(1)
	tol := max(0.005, 2/math.Sqrt(n))
	for _, callers := range []int{2, 8} {
		got, c, atGrow := run(callers)
		if math.Abs(got-ref) > tol {
			t.Errorf("%d callers: accept ratio %.5f, lone caller %.5f (tolerance %.4f)", callers, got, ref, tol)
		}
		for _, rep := range c.Active() {
			if rep.Placed() == atGrow[rep] {
				t.Errorf("%d callers: active replica %d received no placement after the grow", callers, rep.ID())
			}
		}
		t.Logf("%d callers: accept %.5f (lone %.5f), handoffs %d", callers, got, ref, c.Stats().Router.Handoffs)
	}
}

// TestShareConcurrentCallers routes the expiring stream from
// GOMAXPROCS goroutines into four replicas. At GOMAXPROCS 2 each
// caller holds a two-replica share; at 4 and above the shares hold one
// replica or none and every caller probes the whole set. Either way
// every replica receives placements, every request is counted once,
// and no admit leaves its replica outside the region.
func TestShareConcurrentCallers(t *testing.T) {
	var clock atomic.Int64
	c := expiringCluster(&clock, 4, 4)
	callers := max(2, runtime.GOMAXPROCS(0))
	const perCaller = 10_000
	var next atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			demands := make([]time.Duration, 3)
			for n := 0; n < perCaller; n++ {
				id := next.Add(1)
				rep, ok := c.Route(expiringReq(&clock, id, demands))
				if !ok {
					continue
				}
				if v, b := rep.Controller().RegionValue(); v > b+1e-9 {
					t.Errorf("request %d left replica %d at region value %v > bound %v", id, rep.ID(), v, b)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, rep := range c.Replicas() {
		if rep.Placed() == 0 {
			t.Errorf("replica %d received no placements", rep.ID())
		}
	}
	st := c.Stats().Router
	if st.Placed+st.Rejected != uint64(callers*perCaller) || st.Handoffs < 4 {
		t.Fatalf("router stats %+v: want %d routed and at least one claim per replica", st, callers*perCaller)
	}
}
