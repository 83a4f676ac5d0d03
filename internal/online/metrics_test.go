package online

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/metrics"
)

// TestOnlineMetricsExport checks RegisterMetrics mirrors the
// controller's state onto a scrape: counters track Stats and the
// per-stage gauges track Utilizations.
func TestOnlineMetricsExport(t *testing.T) {
	clk := newFakeClock()
	c := New(core.NewRegion(2), nil, clk.Now)
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)

	if !c.TryAdmit(req(1, 4*time.Second, time.Second, time.Second)) {
		t.Fatal("admit failed")
	}
	c.TryAdmit(req(2, 4*time.Second, 40*time.Second, 40*time.Second)) // rejected

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, want := range []string{
		"feasregion_online_admitted_total 1",
		"feasregion_online_rejected_total 1",
		"feasregion_online_gate_rejected_total 0", // the locked reject armed the gate
		`feasregion_online_stage_synthetic_utilization{stage="0"} 0.25`,
		`feasregion_online_stage_scale{stage="1"} 1`,
		"feasregion_online_region_headroom ",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("scrape missing %q:\n%s", want, page)
		}
	}

	c.TryAdmit(req(3, 4*time.Second, 40*time.Second, 40*time.Second)) // rejected by the gate
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"feasregion_online_rejected_total 2", "feasregion_online_gate_rejected_total 1"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("scrape missing %q after a gate reject:\n%s", want, sb.String())
		}
	}

	c.SetStageScale(1, 2.5)
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `feasregion_online_stage_scale{stage="1"} 2.5`) {
		t.Fatalf("scale gauge did not follow SetStageScale:\n%s", sb.String())
	}
}

// TestOnlineMetricsConcurrent is the race-focused satellite: admission,
// release, lazy expiry (sub-millisecond deadlines on the real clock),
// idle resets, reconciles, scale changes, Stats reads, and Prometheus
// scrapes all run concurrently. Under -race this is the regression test
// that exporting metrics never tears the controller's bookkeeping; the
// final reconciled scrape must agree with Stats exactly.
func TestOnlineMetricsConcurrent(t *testing.T) {
	c := New(core.NewRegion(3), nil, nil) // nil clock = real monotone clock
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)

	const workers = 8
	var ids atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := ids.Add(1)
				// Alternate immortal requests (released explicitly) with
				// ones that expire almost immediately, so the lazy-expiry
				// path runs under the scrapers too.
				if i%2 == 0 {
					if c.TryAdmit(Request{ID: id, Deadline: time.Hour,
						Demands: []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond}}) {
						c.Release(id)
					}
				} else {
					c.TryAdmit(Request{ID: id, Deadline: 50 * time.Microsecond,
						Demands: []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond}})
				}
				if i%50 == 0 {
					c.StageIdle(w % 3)
				}
				if i%100 == 0 {
					c.SetStageScale(w%3, 1+float64(i%3))
				}
			}
		}(w)
	}
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // background churn: reconcile + reads, as the watchdog would
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Reconcile()
			_ = c.Stats()
			_ = c.Utilizations()
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				panic(err)
			}
			_ = reg.Snapshot()
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()

	c.Reconcile()
	s := c.Stats()
	if s.Admitted+s.Rejected != uint64(workers*400) {
		t.Fatalf("admitted %d + rejected %d != %d offered", s.Admitted, s.Rejected, workers*400)
	}
	snap := reg.Snapshot()
	if got := snap["feasregion_online_admitted_total"]; got != float64(s.Admitted) {
		t.Fatalf("snapshot admitted %v != stats %d", got, s.Admitted)
	}
	if got := snap["feasregion_online_rejected_total"]; got != float64(s.Rejected) {
		t.Fatalf("snapshot rejected %v != stats %d", got, s.Rejected)
	}
	if got := snap["feasregion_online_gate_rejected_total"]; got != float64(s.GateRejects) || s.GateRejects > s.Rejected {
		t.Fatalf("snapshot gate rejects %v, stats %d of %d rejects", got, s.GateRejects, s.Rejected)
	}
}
