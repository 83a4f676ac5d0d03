package sched

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refJob mirrors a Job inside the container/heap reference, which keeps
// its own index so the two heaps never share bookkeeping.
type refJob struct {
	Job
	idx int
}

// refHeap is the ready queue as it was before the typed heap: a
// container/heap over the same less.
type refHeap []*refJob

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, k int) bool { return less(&h[i].Job, &h[k].Job) }
func (h refHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].idx = i
	h[k].idx = k
}
func (h *refHeap) Push(x any) {
	r := x.(*refJob)
	r.idx = len(*h)
	*h = append(*h, r)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	r.idx = -1
	*h = old[:n-1]
	return r
}

// TestReadyHeapMatchesContainerHeap drives the typed ready heap and a
// container/heap reference through the same random push, pop, remove,
// fix and init sequences, including PCP inheritance changes, and checks
// that both hold the jobs in the same layout after every operation — so
// they pop in the same order.
func TestReadyHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var got readyHeap
	var want refHeap
	var seq uint64
	prio := func() float64 { return float64(rng.Intn(6)) } // small range: many ties
	inherit := func(i int) {
		// Inheritance only ever raises urgency; +Inf clears it, as at a
		// lock release.
		v := math.Inf(1)
		if rng.Intn(3) > 0 {
			v = prio() - 1
		}
		got[i].inherited = v
		want[i].inherited = v
	}
	var popped []uint64
	for step := 0; step < 10000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(got) == 0:
			p := prio()
			j := &Job{base: p, inherited: math.Inf(1), seq: seq, heapIdx: -1}
			r := &refJob{Job: Job{base: p, inherited: math.Inf(1), seq: seq}}
			seq++
			got.push(j)
			heap.Push(&want, r)
		case op < 6:
			g, w := got.pop(), heap.Pop(&want).(*refJob)
			if g.seq != w.seq {
				t.Fatalf("step %d: pop returned seq %d, reference %d", step, g.seq, w.seq)
			}
			if g.heapIdx != -1 {
				t.Fatalf("step %d: popped job keeps heap index %d", step, g.heapIdx)
			}
			popped = append(popped, g.seq)
		case op < 7:
			i := rng.Intn(len(got))
			g, w := got.remove(i), heap.Remove(&want, i).(*refJob)
			if g.seq != w.seq {
				t.Fatalf("step %d: remove(%d) returned seq %d, reference %d", step, i, g.seq, w.seq)
			}
		case op < 9:
			i := rng.Intn(len(got))
			inherit(i)
			got.fix(i)
			heap.Fix(&want, i)
		default:
			for k := rng.Intn(len(got)) + 1; k > 0; k-- {
				inherit(rng.Intn(len(got)))
			}
			got.init()
			heap.Init(&want)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d jobs queued, reference %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i].seq != want[i].seq {
				t.Fatalf("step %d: slot %d holds seq %d, reference %d", step, i, got[i].seq, want[i].seq)
			}
			if got[i].heapIdx != i {
				t.Fatalf("step %d: slot %d records heap index %d", step, i, got[i].heapIdx)
			}
		}
	}
	if len(popped) < 500 {
		t.Fatalf("only %d pops exercised", len(popped))
	}
}
