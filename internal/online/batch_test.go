package online

import (
	"testing"
	"time"

	"feasregion/internal/core"
)

// TestTryAdmitAllFillsRegion checks batched admission is test-order
// sequential: each request is judged against the state its predecessors
// left, so a batch fills the region exactly as the equivalent TryAdmit
// sequence would, under one lock acquisition.
func TestTryAdmitAllFillsRegion(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	// Each request contributes 0.25; the uniprocessor bound admits two
	// (0.5 in, 0.75 out) — identical to TestOnlineAdmitUntilFull.
	rs := []Request{
		req(1, 4*time.Second, time.Second),
		req(2, 4*time.Second, time.Second),
		req(3, 4*time.Second, time.Second),
	}
	out := make([]bool, len(rs))
	if n := c.TryAdmitAll(rs, out); n != 2 {
		t.Fatalf("TryAdmitAll admitted %d, want 2", n)
	}
	if !out[0] || !out[1] || out[2] {
		t.Fatalf("outcomes %v, want [true true false]", out)
	}
	s := c.Stats()
	if s.Admitted != 2 || s.Rejected != 1 {
		t.Fatalf("stats %+v, want 2 admitted / 1 rejected", s)
	}
}

// TestTryAdmitAllArrivalOrder checks the batch tests requests
// strictly in arrival order: a big request that fits alone goes first
// and takes the room a later small one would need, although the small
// one alone would fit too.
func TestTryAdmitAllArrivalOrder(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	// Big contributes 0.5 (f = 0.75), small 0.2 (f ≈ 0.23): each fits
	// alone; together f(0.7) ≈ 1.52 exceeds the bound of 1.
	rs := []Request{
		req(1, 4*time.Second, 2*time.Second),
		req(2, 4*time.Second, 800*time.Millisecond),
	}
	out := make([]bool, len(rs))
	if n := c.TryAdmitAll(rs, out); n != 1 || !out[0] || out[1] {
		t.Fatalf("admitted %d with outcomes %v, want 1 with [true false]", n, out)
	}
}

// TestTryAdmitAllZeroAlloc checks the batch path allocates nothing,
// with and without a result slice: each run offers a batch that is part
// admitted, part rejected, then releases it.
func TestTryAdmitAllZeroAlloc(t *testing.T) {
	dem := []time.Duration{150 * time.Millisecond, 150 * time.Millisecond}
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	rs := make([]Request, 8)
	ids := make([]uint64, len(rs))
	var id uint64
	for _, out := range [][]bool{make([]bool, len(rs)), nil} {
		allocs := testing.AllocsPerRun(100, func() {
			for i := range rs {
				id++
				rs[i] = Request{ID: id, Deadline: time.Second, Demands: dem}
				ids[i] = id
			}
			if n := c.TryAdmitAll(rs, out); n == 0 || n == len(rs) {
				t.Fatalf("batch admitted %d of %d; want a mix", n, len(rs))
			}
			c.ReleaseAll(ids)
		})
		if allocs != 0 {
			t.Fatalf("out nil: %v: TryAdmitAll allocates %v per batch, want 0", out == nil, allocs)
		}
	}
}

// TestTryAdmitAllMalformed checks malformed requests inside a batch are
// rejected and counted without poisoning the rest of the batch.
func TestTryAdmitAllMalformed(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	rs := []Request{
		{ID: 1, Deadline: 0, Demands: []time.Duration{time.Second, time.Second}},
		{ID: 2, Deadline: 4 * time.Second, Demands: []time.Duration{time.Second}}, // wrong arity
		req(3, 4*time.Second, time.Second, time.Second),
	}
	out := make([]bool, len(rs))
	if n := c.TryAdmitAll(rs, out); n != 1 {
		t.Fatalf("TryAdmitAll admitted %d, want 1", n)
	}
	if out[0] || out[1] || !out[2] {
		t.Fatalf("outcomes %v, want [false false true]", out)
	}
	if s := c.Stats(); s.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", s.Rejected)
	}
}

// TestTryAdmitAllNilOut checks per-request outcomes are optional.
func TestTryAdmitAllNilOut(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	rs := []Request{req(1, 4*time.Second, time.Second)}
	if n := c.TryAdmitAll(rs, nil); n != 1 {
		t.Fatalf("TryAdmitAll admitted %d, want 1", n)
	}
}

// TestTryAdmitAllShortOutPanics checks the result-slice arity guard.
func TestTryAdmitAllShortOutPanics(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	defer func() {
		if recover() == nil {
			t.Fatal("short out slice must panic")
		}
	}()
	c.TryAdmitAll([]Request{req(1, time.Second, time.Millisecond), req(2, time.Second, time.Millisecond)}, make([]bool, 1))
}

// TestTryAdmitAllPurgesFirst checks the batch path shares the lazy
// expiry discipline: a full region drains before the batch is tested.
func TestTryAdmitAllPurgesFirst(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(1), nil, clk.Now)
	// Each request: 400ms of work within 2s -> contribution 0.2; two fit
	// (f(0.4) ≈ 0.53), a third would reach f(0.6) = 1.05 > bound.
	if c.TryAdmitAll([]Request{
		req(1, 2*time.Second, 400*time.Millisecond),
		req(2, 2*time.Second, 400*time.Millisecond),
	}, nil) != 2 {
		t.Fatal("initial batch rejected")
	}
	if c.TryAdmitAll([]Request{req(3, 2*time.Second, 400*time.Millisecond)}, nil) != 0 {
		t.Fatal("overload batch admitted")
	}
	clk.Advance(2100 * time.Millisecond)
	if c.TryAdmitAll([]Request{req(4, 2*time.Second, 400*time.Millisecond)}, nil) != 1 {
		t.Fatal("batch rejected after contributions expired")
	}
	if got := c.Stats().Expired; got != 2 {
		t.Fatalf("Expired = %d, want 2", got)
	}
}
