package online

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/core"
)

// TestSetRegionInputsTightens checks a shrunken α rejects a request the
// base region would admit, on both the locked and the lock-free paths,
// while the reservation admitted before the change is held, and that
// restoring α resumes admission.
func TestSetRegionInputsTightens(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	if !c.TryAdmit(req(9, 10*time.Second, time.Second)) { // 0.1
		t.Fatal("reservation rejected under α=1")
	}
	before := c.Utilizations()
	// Another 0.25 → f(0.35) ≈ 0.44: inside the α=1 bound but outside
	// α=0.25.
	c.SetRegionInputs(0.25, nil)
	if c.Bound() != 0.25 {
		t.Fatalf("Bound = %v, want 0.25", c.Bound())
	}
	if after := c.Utilizations(); after[0] != before[0] {
		t.Fatalf("admitted utilization changed across the α change: %v -> %v", before, after)
	}
	if c.TryAdmit(req(1, 4*time.Second, time.Second)) {
		t.Fatal("admitted outside the tightened region")
	}
	// The lock-free reject path must see the tightened bound too: with
	// nothing freed and no expiry due the second attempt runs
	// optimistically.
	if c.TryAdmit(req(2, 4*time.Second, time.Second)) {
		t.Fatal("lock-free path admitted outside the tightened region")
	}
	if got := c.Stats().Rejected; got != 2 {
		t.Fatalf("Rejected = %d, want 2", got)
	}
	c.SetRegionInputs(1, nil)
	if !c.TryAdmit(req(3, 4*time.Second, time.Second)) {
		t.Fatal("admission did not resume once α was restored")
	}
}

// TestSetRegionInputsBetas checks blocking terms shrink the bound by
// α·Σβ and that restoring them re-admits.
func TestSetRegionInputsBetas(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	c.SetRegionInputs(1, []float64{0.3, 0.2})
	if got, want := c.Bound(), 0.5; got != want {
		t.Fatalf("Bound = %v, want %v", got, want)
	}
	r := c.Region()
	if r.Alpha != 1 || len(r.Betas) != 2 || r.Betas[0] != 0.3 {
		t.Fatalf("Region = %+v, want alpha 1, betas [0.3 0.2]", r)
	}
	// f(0.25)·2 ≈ 0.58 > 0.5: rejected under blocking, admitted without.
	if c.TryAdmit(req(1, 4*time.Second, time.Second, time.Second)) {
		t.Fatal("admitted despite blocking terms")
	}
	c.SetRegionInputs(1, []float64{0, 0})
	if !c.TryAdmit(req(2, 4*time.Second, time.Second, time.Second)) {
		t.Fatal("rejected after blocking terms cleared")
	}
}

// TestSetRegionInputsValidates checks the setter shares the Region
// constructors' validation.
func TestSetRegionInputsValidates(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	for _, tc := range []struct {
		name  string
		alpha float64
		betas []float64
	}{
		{"alpha zero", 0, nil},
		{"alpha above one", 1.5, nil},
		{"beta arity", 1, []float64{0.1, 0.1}},
		{"beta negative", 1, []float64{-0.1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			c.SetRegionInputs(tc.alpha, tc.betas)
		}()
	}
}

// TestReleaseAllBatch checks the batch release frees capacity in one
// shot and reports how many IDs were live.
func TestReleaseAllBatch(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	if c.TryAdmitAll([]Request{
		req(1, 4*time.Second, time.Second),
		req(2, 4*time.Second, time.Second),
	}, nil) != 2 {
		t.Fatal("setup batch rejected")
	}
	// Region is full: a third request does not fit.
	if c.TryAdmit(req(3, 4*time.Second, time.Second)) {
		t.Fatal("admitted into a full region")
	}
	if n := c.ReleaseAll([]uint64{1, 2, 99}); n != 2 {
		t.Fatalf("ReleaseAll = %d, want 2 (id 99 unknown)", n)
	}
	if !c.TryAdmit(req(4, 4*time.Second, time.Second)) {
		t.Fatal("rejected after batch release")
	}
	if c.ReleaseAll(nil) != 0 {
		t.Fatal("empty batch released something")
	}
}

// TestReleaseAllCancelsStagedExpiries: like Release, ReleaseAll releases
// before its purge, so the purge's drain discards the batch's own staged
// expiry entries instead of filing them into the wheel until their
// deadlines.
func TestReleaseAllCancelsStagedExpiries(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	ids := []uint64{1, 2, 3}
	for _, id := range ids {
		if !c.TryAdmit(req(id, time.Hour, time.Minute)) {
			t.Fatalf("request %d rejected", id)
		}
	}
	if n := c.ReleaseAll(ids); n != len(ids) {
		t.Fatalf("ReleaseAll = %d, want %d", n, len(ids))
	}
	if st := c.Stats(); st.Cancelled != uint64(len(ids)) || st.Expired != 0 {
		t.Fatalf("after ReleaseAll: Cancelled %d, Expired %d; want %d, 0", st.Cancelled, st.Expired, len(ids))
	}
}

// TestSetRegionInputsConcurrentSoak: α swaps (the α of several
// priority orders) racing TryAdmit and Release must stay data-race-free
// (run under -race) and keep the controller consistent — every admit
// that succeeded is releasable and the final utilization returns to
// zero.
func TestSetRegionInputsConcurrentSoak(t *testing.T) {
	c := New(core.NewRegion(2), nil, nil)
	const workers = 4
	const opsPerWorker = 800

	var wg sync.WaitGroup
	var nextID atomic.Uint64
	orders := [][]core.TaskParams{
		nil, // α = 1
		{{Priority: 0, Deadline: 2}, {Priority: 1, Deadline: 1}},   // α = 1/2
		{{Priority: 0, Deadline: 10}, {Priority: 1, Deadline: 4}},  // α = 2/5
		{{Priority: 0, Deadline: 1}, {Priority: 1, Deadline: 100}}, // DM, α = 1
	}

	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < opsPerWorker; i++ {
			c.SetRegionInputs(core.Alpha(orders[i%len(orders)]), nil)
		}
	}()
	admitted := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				id := nextID.Add(1)
				if c.TryAdmit(req(id, time.Hour, 10*time.Millisecond, 10*time.Millisecond)) {
					admitted[w] = append(admitted[w], id)
				}
				if n := len(admitted[w]); n > 4 {
					c.Release(admitted[w][0])
					admitted[w] = admitted[w][1:]
					_ = n
				}
			}
		}()
	}
	wg.Wait()
	for w := range admitted {
		for _, id := range admitted[w] {
			c.Release(id)
		}
	}
	for j, u := range c.Utilizations() {
		if u > 1e-12 {
			t.Fatalf("stage %d utilization %v after releasing everything", j, u)
		}
	}
}
