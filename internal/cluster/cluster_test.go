package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/online"
)

// fixedClock is an injectable manual clock (advance by reassigning).
type fixedClock struct{ now time.Time }

func (c *fixedClock) Clock() online.Clock {
	return func() time.Time { return c.now }
}

// newTestReplica builds a single-stage replica on a manual clock.
func newTestReplica(t *testing.T, id int, clk *fixedClock) *Replica {
	t.Helper()
	ctrl := online.NewWithConfig(core.NewRegion(1), online.Config{Clock: clk.Clock()})
	return NewReplica(id, ctrl)
}

// req builds a single-stage request with per-stage utilization u =
// demand/deadline against a far deadline (no expiry interference).
func req(id uint64, u float64) online.Request {
	deadline := time.Hour
	return online.Request{
		ID:       id,
		Deadline: deadline,
		Demands:  []time.Duration{time.Duration(u * float64(deadline))},
	}
}

func TestReplicaSnapshotTracksAdmissions(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	rep := newTestReplica(t, 0, clk)
	h0, v0 := rep.Snapshot()
	if v0 != 0 || h0 != rep.Controller().Bound() {
		t.Fatalf("fresh replica snapshot = (%v, %v), want (bound %v, 0)", h0, v0, rep.Controller().Bound())
	}
	if !rep.TryAdmit(req(1, 0.3)) {
		t.Fatal("admit refused with empty region")
	}
	h1, v1 := rep.Snapshot()
	want := core.StageDelayFactor(0.3)
	if diff := v1 - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("value after admit = %v, want f(0.3) = %v", v1, want)
	}
	if h1 >= h0 {
		t.Fatalf("headroom did not shrink: %v → %v", h0, h1)
	}
	rep.Release(1)
	if h2, v2 := rep.Snapshot(); v2 != 0 || h2 != h0 {
		t.Fatalf("snapshot after release = (%v, %v), want (%v, 0)", h2, v2, h0)
	}
	if rep.Placed() != 1 {
		t.Fatalf("placed = %d, want 1", rep.Placed())
	}
}

// TestReplicaRefreshOneRead pins Refresh to one consistent read of its
// controller: a single clock sample per publish, with and without a due
// purge (a per-stage loop samples once per stage), and a published
// headroom equal to Bound() − Region().Value(Utilizations()) exactly at
// quiescence.
func TestReplicaRefreshOneRead(t *testing.T) {
	var reads atomic.Int64
	now := time.Unix(0, 0)
	clock := func() time.Time { reads.Add(1); return now }
	ctrl := online.New(core.NewRegion(3), nil, clock)
	rep := NewReplica(0, ctrl)
	for id := uint64(1); id <= 8; id++ {
		d := time.Duration(id) * 10 * time.Millisecond
		rep.TryAdmit(online.Request{ID: id, Deadline: d, Demands: []time.Duration{d / 20, d / 30, d / 40}})
	}
	check := func(phase string) {
		t.Helper()
		reads.Store(0)
		rep.Refresh()
		if n := reads.Load(); n != 1 {
			t.Fatalf("%s: Refresh read the clock %d times, want 1", phase, n)
		}
		h, v := rep.Snapshot()
		want := ctrl.Region().Value(ctrl.Utilizations())
		if v != want || h != ctrl.Bound()-want {
			t.Fatalf("%s: snapshot (%v, %v), want (%v, %v)", phase, h, v, ctrl.Bound()-want, want)
		}
	}
	check("quiescent")
	if allocs := testing.AllocsPerRun(100, rep.Refresh); allocs != 0 {
		t.Fatalf("Refresh allocates %v times, want 0", allocs)
	}
	now = now.Add(45 * time.Millisecond) // four deadlines pass: the purge is due
	check("purge due")
	if v := ctrl.Region().Value(ctrl.Utilizations()); v == 0 {
		t.Fatal("every contribution expired; the test needs survivors")
	}
}

// TestReplicaSnapshotConcurrentPublish races two publishers, each
// storing (headroom −x, value x) pairs with its own x values, against a
// reader: every Snapshot must return one publish's pair whole. Two
// publishers that each just incremented seq could leave it even around
// a half-written pair, and a reader that gave up after a few torn
// attempts returned unguarded loads.
func TestReplicaSnapshotConcurrentPublish(t *testing.T) {
	rep := newTestReplica(t, 0, &fixedClock{now: time.Unix(0, 0)})
	rep.publish(1, 0) // replace the (bound, 0) pair NewReplica published
	const writes = 100_000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= writes; i++ {
				rep.publish(float64(2*i+w), 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	reads, torn := 0, 0
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		if h, v := rep.Snapshot(); h != -v {
			torn++
		}
	}
	if torn > 0 {
		t.Fatalf("%d of %d snapshots mixed two publishes", torn, reads)
	}
	if h, v := rep.Snapshot(); v < 2*writes || h != -v {
		t.Fatalf("final snapshot (%v, %v), want a last publish (−x, x) with x ≥ %d", h, v, 2*writes)
	}
}

func TestReplicaDrainLifecycle(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	rep := newTestReplica(t, 0, clk)
	if !rep.TryAdmit(req(1, 0.2)) {
		t.Fatal("admit refused")
	}
	rep.setState(Draining)
	if rep.TryAdmit(req(2, 0.1)) {
		t.Fatal("draining replica admitted a request")
	}
	if rep.Drained(1e-9) {
		t.Fatal("replica with live contribution reported drained")
	}
	rep.Release(1)
	if !rep.Drained(1e-9) {
		t.Fatal("empty draining replica not drained")
	}
	// An Active replica is never "drained", however empty.
	rep.setState(Active)
	if rep.Drained(1e-9) {
		t.Fatal("active replica reported drained")
	}
}

func TestRouterRoundRobinRotation(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	reps := []*Replica{newTestReplica(t, 0, clk), newTestReplica(t, 1, clk), newTestReplica(t, 2, clk)}
	r := NewRouter(RoundRobin, 0)
	r.SetReplicas(reps)
	var id uint64
	for round := 0; round < 2; round++ {
		for want := 0; want < 3; want++ {
			id++
			got, ok := r.Route(req(id, 0.01))
			if !ok || got.ID() != want {
				t.Fatalf("route %d landed on %v, want replica %d", id, got, want)
			}
		}
	}
	if st := r.Stats(); st.Placed != 6 || st.Rollbacks != 0 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 6 placed clean", st)
	}
}

func TestRouterGreedyPrefersHeadroomTieBreaksLowID(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	reps := []*Replica{newTestReplica(t, 0, clk), newTestReplica(t, 1, clk), newTestReplica(t, 2, clk)}
	r := NewRouter(HeadroomGreedy, 0)
	r.SetReplicas(reps)

	// All equal: the tie breaks toward replica 0 every time.
	var buf [2]*Replica
	for i := 0; i < 5; i++ {
		if k := r.Candidates(buf[:]); k != 2 || buf[0].ID() != 0 {
			t.Fatalf("equal-headroom pick = replica %d (k=%d), want 0", buf[0].ID(), k)
		}
	}

	// Load replica 0 and 1; replica 2 is now richest, runner-up is 1... no:
	// 0 carries the most load, so preference is 2 then 1.
	if !reps[0].TryAdmit(req(1, 0.4)) || !reps[1].TryAdmit(req(2, 0.2)) {
		t.Fatal("setup admits refused")
	}
	r.Candidates(buf[:])
	if buf[0].ID() != 2 || buf[1].ID() != 1 {
		t.Fatalf("pick = (%d, %d), want (2, 1)", buf[0].ID(), buf[1].ID())
	}
}

func TestRouterP2CSeedDeterminism(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	reps := []*Replica{newTestReplica(t, 0, clk), newTestReplica(t, 1, clk), newTestReplica(t, 2, clk), newTestReplica(t, 3, clk)}
	a, b := NewRouter(PowerOfTwo, 42), NewRouter(PowerOfTwo, 42)
	a.SetReplicas(reps)
	b.SetReplicas(reps)
	var ba, bb [2]*Replica
	for i := 0; i < 100; i++ {
		ka, kb := a.Candidates(ba[:]), b.Candidates(bb[:])
		if ka != kb || ba[0] != bb[0] || ba[1] != bb[1] {
			t.Fatalf("probe %d diverged between equal-seed routers", i)
		}
		if ba[0] == ba[1] {
			t.Fatalf("probe %d chose the same replica twice", i)
		}
		if ba[0].Headroom() < ba[1].Headroom() {
			t.Fatalf("probe %d not ordered by headroom", i)
		}
	}
}

// TestRouterCandidatesGolden pins the first 64 PowerOfTwo Candidates
// pairs (replica IDs, preferred first) for seed 42 over four replicas
// of equal headroom, so the order is the probe order. The simulated
// fleet routes through Candidates, so a drift here moves its decisions;
// TestRouterP2CSeedDeterminism only compares two routers to each other.
func TestRouterCandidatesGolden(t *testing.T) {
	const want = "1232200323201001102332232131022313133101031010100310123232311020" +
		"1321103212100303231001103223203123311001023110301323032323202321"
	clk := &fixedClock{now: time.Unix(0, 0)}
	reps := []*Replica{newTestReplica(t, 0, clk), newTestReplica(t, 1, clk), newTestReplica(t, 2, clk), newTestReplica(t, 3, clk)}
	r := NewRouter(PowerOfTwo, 42)
	r.SetReplicas(reps)
	var buf [2]*Replica
	got := make([]byte, 0, len(want))
	for i := 0; i < 64; i++ {
		if k := r.Candidates(buf[:]); k != 2 {
			t.Fatalf("pair %d: %d candidates, want 2", i, k)
		}
		got = append(got, byte('0'+buf[0].ID()), byte('0'+buf[1].ID()))
	}
	if string(got) != want {
		t.Fatalf("Candidates pairs\n got %s\nwant %s", got, want)
	}
}

// TestRouteConcurrentExpiring is the online-wall shape under -race: two
// goroutines Route into four PowerOfTwo replicas on a shared virtual
// clock that each request advances, so reservations leave by deadline
// expiry. Per-P routing memory must not starve any replica, and no
// admit may leave its replica outside the region.
func TestRouteConcurrentExpiring(t *testing.T) {
	var clock atomic.Int64
	c := New(Options{
		Region: core.NewRegion(3),
		Online: online.Config{Clock: func() time.Time { return time.Unix(0, clock.Load()) }},
		Policy: PowerOfTwo,
		Seed:   7,
		Scaler: AutoscalerConfig{Min: 4, Max: 4},
	})
	const perCaller = 20_000
	var next atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			demands := make([]time.Duration, 3)
			for n := 0; n < perCaller; n++ {
				id := next.Add(1)
				at := int64(id) * 200 * int64(time.Microsecond)
				for cur := clock.Load(); at > cur && !clock.CompareAndSwap(cur, at); cur = clock.Load() {
				}
				deadline := time.Duration(5+id*7919%40) * time.Millisecond
				for j := range demands {
					demands[j] = deadline / time.Duration(30+(id>>j)%50)
				}
				rep, ok := c.Route(online.Request{ID: id, Deadline: deadline, Demands: demands})
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
	if st.Placed+st.Rejected != 2*perCaller || st.Rejected == 0 {
		t.Fatalf("router stats %+v: want %d routed, some rejected", st, 2*perCaller)
	}
}

// TestRouteForgetsRemovedReplica: once a replica leaves the active set,
// no Route probes it again, even though every P's routing memory holds
// it and it stays Active with the most headroom (so any probe of it
// would admit there). Its index now holds another replica, and
// the memory falls back to a random first probe.
func TestRouteForgetsRemovedReplica(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	reps := []*Replica{newTestReplica(t, 0, clk), newTestReplica(t, 1, clk), newTestReplica(t, 2, clk), newTestReplica(t, 3, clk)}
	for i, rep := range reps[1:] {
		if !rep.TryAdmit(req(uint64(1<<40+i), 0.3)) {
			t.Fatal("setup admit refused")
		}
	}
	r := NewRouter(PowerOfTwo, 42)
	r.SetReplicas(reps)
	var id uint64
	for n := 0; n < 64; n++ {
		id++
		rep, ok := r.Route(req(id, 1e-4))
		if !ok {
			t.Fatalf("route %d refused", id)
		}
		rep.Release(id)
	}
	if reps[0].Placed() == 0 {
		t.Fatal("the richest replica never won a placement")
	}
	r.SetReplicas(reps[1:])
	before := reps[0].Placed()
	for n := 0; n < 256; n++ {
		id++
		rep, ok := r.Route(req(id, 1e-4))
		if !ok || rep == reps[0] {
			t.Fatalf("route %d landed on %v (ok %v), want one of replicas 1–3", id, rep, ok)
		}
		rep.Release(id)
	}
	if got := reps[0].Placed(); got != before {
		t.Fatalf("removed replica admitted %d more requests", got-before)
	}
}

func TestRouterRollbackOnRacedDrain(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	reps := []*Replica{newTestReplica(t, 0, clk), newTestReplica(t, 1, clk)}
	r := NewRouter(HeadroomGreedy, 0)
	r.SetReplicas(reps)
	// Replica 0 wins the tie but drains after the router last saw the
	// set — its admit refuses and the placement rolls back to replica 1.
	reps[0].setState(Draining)
	got, ok := r.Route(req(1, 0.1))
	if !ok || got.ID() != 1 {
		t.Fatalf("route landed on %v, want rollback to replica 1", got)
	}
	st := r.Stats()
	if st.Placed != 1 || st.Rollbacks != 1 {
		t.Fatalf("stats = %+v, want one placement via rollback", st)
	}
	// Both refusing: the request is rejected.
	reps[1].setState(Draining)
	if _, ok := r.Route(req(2, 0.1)); ok {
		t.Fatal("route succeeded with every candidate draining")
	}
	if st := r.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v, want one reject", st)
	}
}

// scalerCluster builds a Min=1/Max=3 fleet with short dwells for the
// hysteresis tests: up after 2 signal ticks, down after 3, cooldown 2.
func scalerCluster(clk *fixedClock) *Cluster {
	return New(Options{
		Region: core.NewRegion(1),
		Online: online.Config{Clock: clk.Clock()},
		Policy: HeadroomGreedy,
		Scaler: AutoscalerConfig{
			Min: 1, Max: 3,
			UpHeadroomFrac: 0.15, UpRejectRate: 0.02, UpAfter: 2,
			DownHeadroomFrac: 0.6, DownAfter: 3, Cooldown: 2,
		},
	})
}

func TestAutoscalerHysteresis(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	c := scalerCluster(clk)
	sc := c.Autoscaler()
	rep0 := c.Active()[0]

	// Load replica 0 to U=0.54: f(0.54) ≈ 0.857, headroom frac ≈ 0.143
	// < 0.15 — a sustained up-signal.
	for i := uint64(1); i <= 10; i++ {
		if !rep0.TryAdmit(req(i, 0.054)) {
			t.Fatalf("setup admit %d refused", i)
		}
	}
	sc.Tick() // up streak 1: below UpAfter, no action
	if n := c.ActiveCount(); n != 1 {
		t.Fatalf("scaled up after one tick (dwell violated): %d active", n)
	}
	sc.Tick() // up streak 2: scale-up fires
	if n := c.ActiveCount(); n != 2 {
		t.Fatalf("no scale-up after UpAfter ticks: %d active", n)
	}
	tr := sc.Transitions()
	if len(tr) != 1 || tr[0].Action != ScaleUp || tr[0].Tick != 2 {
		t.Fatalf("transitions = %+v, want one ScaleUp at tick 2", tr)
	}

	// Aggregate frac is now ≈ (0.143 + 1) / 2 — inside the dead band;
	// ticks through the cooldown change nothing.
	for i := 0; i < 4; i++ {
		sc.Tick()
	}
	if got := len(sc.Transitions()); got != 1 {
		t.Fatalf("fleet moved inside the hysteresis band: %d transitions", got)
	}

	// Unload: frac goes to 1 > 0.6 with no rejects. Scale-down must wait
	// DownAfter consecutive quiet ticks, then drain (not remove) one.
	for i := uint64(1); i <= 10; i++ {
		rep0.Release(i)
	}
	sc.Tick()
	sc.Tick()
	if n := c.ActiveCount(); n != 2 {
		t.Fatalf("scaled down too fast: %d active", n)
	}
	sc.Tick() // down streak 3: drain fires
	if n := c.ActiveCount(); n != 1 {
		t.Fatalf("no drain after DownAfter ticks: %d active", n)
	}
	if n := len(c.Draining()); n != 1 {
		t.Fatalf("drained replica not in draining state: %d draining", n)
	}
	// The drained replica is empty, so the next tick retires it
	// (removal is exempt from cooldown).
	sc.Tick()
	if n := len(c.Replicas()); n != 1 {
		t.Fatalf("drained replica not removed: %d live", n)
	}
	tr = sc.Transitions()
	last := tr[len(tr)-1]
	if last.Action != Remove {
		t.Fatalf("last transition = %+v, want Remove", last)
	}
	// Min=1 floor: however quiet, the last replica is never drained.
	for i := 0; i < 10; i++ {
		sc.Tick()
	}
	if n := c.ActiveCount(); n != 1 {
		t.Fatalf("scaler violated Min: %d active", n)
	}
}

func TestAutoscalerRejectRateSignal(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	c := scalerCluster(clk)
	sc := c.Autoscaler()
	rep0 := c.Active()[0]
	// Fill replica 0 to moderate load (frac above the up threshold), then
	// route oversized requests: every one rejects, driving the reject
	// rate over UpRejectRate even though headroom looks fine.
	if !rep0.TryAdmit(req(1, 0.3)) {
		t.Fatal("setup admit refused")
	}
	for i := uint64(2); i <= 6; i++ {
		if _, ok := c.Route(req(i, 0.9)); ok {
			t.Fatalf("oversized request %d admitted", i)
		}
	}
	sc.Tick()
	if n := c.ActiveCount(); n != 1 {
		t.Fatalf("scaled up after one tick: %d active", n)
	}
	for i := uint64(7); i <= 12; i++ {
		c.Route(req(i, 0.9))
	}
	sc.Tick()
	if n := c.ActiveCount(); n != 2 {
		t.Fatalf("reject-rate signal did not scale up: %d active", n)
	}
}

// addReplica grows the fleet by one spawned replica (subject to the
// scaler's Max) and returns it, or nil when none was spawned.
func addReplica(c *Cluster) *Replica {
	rep, fresh, ok := c.grow(c.scaler.cfg.Max)
	if !ok || !fresh {
		return nil
	}
	return rep
}

func TestAutoscalerUndrainsBeforeSpawning(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	c := scalerCluster(clk)
	if addReplica(c) == nil {
		t.Fatal("manual grow refused")
	}
	// Park a request on replica 1 so it stays draining (not removable),
	// then drain it manually.
	var rep1 *Replica
	for _, rep := range c.Active() {
		if rep.ID() == 1 {
			rep1 = rep
		}
	}
	if !rep1.TryAdmit(req(1, 0.2)) {
		t.Fatal("setup admit refused")
	}
	if !c.Drain(1) {
		t.Fatal("manual drain refused")
	}
	// Now saturate replica 0 so the scaler wants capacity: it must
	// reactivate replica 1 instead of spawning replica 2.
	rep0 := c.Active()[0]
	for i := uint64(10); i <= 19; i++ {
		if !rep0.TryAdmit(req(i, 0.054)) {
			t.Fatalf("setup admit %d refused", i)
		}
	}
	sc := c.Autoscaler()
	sc.Tick()
	sc.Tick()
	tr := sc.Transitions()
	last := tr[len(tr)-1]
	if last.Action != Undrain || last.Replica != 1 {
		t.Fatalf("last transition = %+v, want Undrain of replica 1", last)
	}
	if n := len(c.Replicas()); n != 2 {
		t.Fatalf("fleet size = %d, want 2 (no spawn)", n)
	}
}

// TestClusterSoakJoinDrainUnderAdmits hammers routing from many
// goroutines while the control plane grows, drains, and ticks; each
// goroutine releases every request on the replica that admitted it, in
// batches, so admits keep finding room. The clock is frozen, so nothing
// expires: once everything held is released, every replica reads 0.
func TestClusterSoakJoinDrainUnderAdmits(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	c := New(Options{
		Region: core.NewRegion(1),
		Online: online.Config{Clock: clk.Clock()},
		Policy: PowerOfTwo,
		Seed:   7,
		Scaler: AutoscalerConfig{Min: 1, Max: 6},
	})
	type placed struct {
		rep *Replica
		id  uint64
	}
	var stop atomic.Bool
	var next atomic.Uint64
	var wg sync.WaitGroup
	held := make([][]placed, 8)
	for g := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := make([]placed, 0, 16)
			for !stop.Load() {
				id := next.Add(1)
				if rep, ok := c.Route(req(id, 0.02)); ok {
					ps = append(ps, placed{rep, id})
					if len(ps) == cap(ps) {
						for _, p := range ps {
							p.rep.Release(p.id)
						}
						ps = ps[:0]
					}
				}
				_, _ = c.Replicas()[0].Snapshot()
			}
			held[g] = ps
		}()
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	i := 0
	for time.Now().Before(deadline) {
		switch i % 4 {
		case 0:
			addReplica(c)
		case 1:
			if act := c.Active(); len(act) > 1 {
				c.Drain(act[len(act)-1].ID())
			}
		case 2:
			c.Autoscaler().Tick()
		default:
			_ = c.Stats()
		}
		i++
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	reps := map[*Replica]bool{}
	for _, rep := range c.Replicas() {
		reps[rep] = true
	}
	for _, ps := range held {
		for _, p := range ps {
			p.rep.Release(p.id)
			reps[p.rep] = true
		}
	}
	st := c.Stats()
	if st.Router.Placed == 0 {
		t.Fatal("soak placed nothing")
	}
	for rep := range reps {
		for j, u := range rep.Controller().Utilizations() {
			if u != 0 {
				t.Fatalf("replica %d stage %d: utilization %v after every request was released", rep.ID(), j, u)
			}
		}
	}
	t.Logf("placed %d, rejected %d", st.Router.Placed, st.Router.Rejected)
}
