// Httpserver: the wall-clock admission controller in a real service,
// now with the observability loop closed.
//
// Unlike the other examples (which run on the simulated clock), this one
// spins up an actual net/http server whose handler pushes work through
// two serialized backend stages — an application stage and a database
// stage, each a single worker goroutine — and guards the front door with
// the online feasible-region admission controller:
//
//   - every request declares a response-time goal (its deadline) and
//     per-stage cost estimates;
//   - admitted requests are processed end to end; rejected ones get 503
//     immediately (fail fast instead of queueing into a missed goal);
//   - stage-idle callbacks drive the paper's synthetic-utilization reset;
//   - a background watchdog reconciles the ledgers against leaks, the
//     production safety net for lost departure callbacks;
//   - a /metrics endpoint exports the controller's counters, per-stage
//     synthetic utilization, region headroom, and request latency
//     histograms in Prometheus text format;
//   - a stage-health monitor watches each stage's actual service time
//     against its declared cost and drives the controller's per-stage
//     demand scale when a stage degrades — admission throttles itself
//     instead of over-admitting into a slow backend;
//   - a closed-loop adaptive estimator reads the per-stage sojourn and
//     service histograms and folds any delay Theorem 1 did not predict
//     into the region's β_j terms (THEORY.md §7) — the region itself
//     tightens when the service misbehaves, and only ever tightens, so
//     the admitted-task guarantee survives;
//   - a background scraper polls /metrics throughout the load, standing
//     in for Prometheus: each scrape holds the controller's lock only
//     for a short read, so monitoring barely contends with admission;
//   - a webhook-style fan-in admits a whole burst of arrivals with one
//     TryAdmitAll call — one lock acquisition and one expiry purge
//     amortized across the batch.
//
// The demo fires a few thousand concurrent requests at twice the
// service's capacity, degrades the db stage 3x for the middle of the
// run, and reports acceptance, goal violations, tail latency, what the
// health monitor did, and a slice of the /metrics page.
//
// Run with: go run ./examples/httpserver
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	feasregion "feasregion"
)

var (
	errStageBusy   = errors.New("stage queue full")
	errStageClosed = errors.New("stage closed")
)

// stage is a single-worker backend stage: requests queue FIFO and a
// dedicated goroutine "executes" each job by sleeping its cost. The
// idle callback is wired after construction (SetOnIdle) and may be nil;
// Close stops the worker so the stage cannot leak its goroutine.
// slowdown (in units of 1/100) models a degraded backend: the worker
// multiplies every job's cost by slowdown/100.
type stage struct {
	name     string
	jobs     chan job
	pending  atomic.Int64
	slowdown atomic.Int64 // cost multiplier ×100; 100 = nominal
	done     chan struct{}
	closing  sync.Once

	// observe, when non-nil, receives (declared cost, actual service
	// time) for every executed job — the stage-health monitor's input.
	observe func(declared, actual time.Duration)

	mu     sync.Mutex
	onIdle func()
}

type job struct {
	cost time.Duration
	done chan struct{}
}

func newStage(name string, queue int) *stage {
	s := &stage{name: name, jobs: make(chan job, queue), done: make(chan struct{})}
	s.slowdown.Store(100)
	go s.work()
	return s
}

// SetOnIdle wires the drained-queue callback; before it is called (or
// with a nil fn) idle transitions are simply not reported.
func (s *stage) SetOnIdle(fn func()) {
	s.mu.Lock()
	s.onIdle = fn
	s.mu.Unlock()
}

func (s *stage) work() {
	for {
		select {
		case <-s.done:
			return
		case j := <-s.jobs:
			start := time.Now()
			time.Sleep(j.cost * time.Duration(s.slowdown.Load()) / 100)
			if s.observe != nil {
				s.observe(j.cost, time.Since(start))
			}
			close(j.done)
			if s.pending.Add(-1) == 0 {
				s.mu.Lock()
				fn := s.onIdle
				s.mu.Unlock()
				if fn != nil {
					fn()
				}
			}
		}
	}
}

// Close stops the worker goroutine; idempotent. In-flight run calls
// return errStageClosed instead of blocking forever.
func (s *stage) Close() {
	s.closing.Do(func() { close(s.done) })
}

// run executes cost on the stage and blocks until done. A full queue
// fails fast with errStageBusy rather than blocking the caller into a
// blown deadline — backpressure belongs at admission, not in a hidden
// unbounded wait.
func (s *stage) run(cost time.Duration) error {
	j := job{cost: cost, done: make(chan struct{})}
	s.pending.Add(1)
	select {
	case s.jobs <- j:
	case <-s.done:
		s.pending.Add(-1)
		return errStageClosed
	default:
		s.pending.Add(-1)
		return errStageBusy
	}
	select {
	case <-j.done:
		return nil
	case <-s.done:
		return errStageClosed
	}
}

func main() {
	const (
		appCost  = 2 * time.Millisecond
		dbCost   = 3 * time.Millisecond
		deadline = 60 * time.Millisecond
	)

	// Stages exist before the controller: until SetOnIdle wires them,
	// idle transitions are silently (and safely) unreported.
	app := newStage("app", 4096)
	db := newStage("db", 4096)
	defer db.Close()
	defer app.Close()

	ctrl := feasregion.NewOnlineController(feasregion.NewRegion(2), nil, nil)
	app.SetOnIdle(func() { ctrl.StageIdle(0) })
	db.SetOnIdle(func() { ctrl.StageIdle(1) })

	// Observability: one registry serves /metrics; the controller
	// describes itself with read-on-scrape series, the handler adds
	// request counters and a latency histogram.
	reg := feasregion.NewMetricsRegistry()
	ctrl.RegisterMetrics(reg)
	reqOK := reg.Counter("httpserver_requests_ok_total", "requests served within the pipeline")
	reqRejected := reg.Counter("httpserver_requests_rejected_total", "requests refused 503 at admission")
	latency := reg.Histogram("httpserver_request_duration_seconds", "end-to-end handler latency",
		feasregion.ExponentialBuckets(0.001, 2, 10))

	// Stage-health feedback: the monitor compares each stage's actual
	// service time against its declared cost and scales the controller's
	// admission demands when a stage degrades — the online analogue of
	// the -run health experiment.
	mon := feasregion.NewStageHealthMonitor(feasregion.StageHealthConfig{
		Stages:           2,
		Alpha:            0.3,
		MinSamples:       10,
		DegradeThreshold: 1.5,
		RecoverThreshold: 1.15,
		MaxScale:         8,
	}, ctrl)
	mon.SetMetrics(reg)

	// Closed-loop region adaptation: per-stage sojourn (submit → done)
	// and pure-service histograms feed the β estimator, which normalizes
	// any tail delay Theorem 1's f(U_j)·Dref does not explain into the
	// region's blocking terms. The health monitor rescales *demands*;
	// the adaptive loop tightens the *region* — they compose.
	sojournBuckets := feasregion.ExponentialBuckets(0.0005, 2, 12)
	var sojournHist, serviceHist [2]interface {
		Observe(float64)
		Quantile(float64) float64
		Count() uint64
	}
	for j := 0; j < 2; j++ {
		lbl := feasregion.MetricLabel{Name: "stage", Value: strconv.Itoa(j)}
		sojournHist[j] = reg.Histogram("httpserver_stage_sojourn_seconds",
			"stage submit-to-completion time", sojournBuckets, lbl)
		serviceHist[j] = reg.Histogram("httpserver_stage_service_seconds",
			"stage pure service time", sojournBuckets, lbl)
	}
	adaptLoop := feasregion.NewAdaptiveLoop(
		feasregion.AdaptiveConfig{
			DeadlineRef: deadline.Seconds(),
			Beta:        feasregion.AdaptiveBetaConfig{Enabled: true, MinSamples: 25},
		},
		feasregion.NewRegion(2), ctrl,
		feasregion.AdaptiveSources{
			SojournQuantile: func(j int, q float64) float64 { return sojournHist[j].Quantile(q) },
			SojournCount:    func(j int) uint64 { return sojournHist[j].Count() },
			ServiceQuantile: func(j int, q float64) float64 { return serviceHist[j].Quantile(q) },
			StageUtilization: func(j int) float64 {
				return ctrl.Utilizations()[j]
			},
		})
	adaptLoop.SetMetrics(reg)
	stopAdapt := adaptLoop.Start(20 * time.Millisecond)
	defer stopAdapt()

	app.observe = func(declared, actual time.Duration) {
		mon.Observe(0, declared.Seconds(), actual.Seconds())
		serviceHist[0].Observe(actual.Seconds())
	}
	db.observe = func(declared, actual time.Duration) {
		mon.Observe(1, declared.Seconds(), actual.Seconds())
		serviceHist[1].Observe(actual.Seconds())
	}

	// Self-healing: reconcile the ledgers periodically so a leaked
	// contribution (a handler that crashed between admit and release)
	// cannot pin synthetic utilization forever.
	stopWatchdog := ctrl.StartWatchdog(25 * time.Millisecond)
	defer stopWatchdog()

	var nextID atomic.Uint64
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := nextID.Add(1)
		ok := ctrl.TryAdmit(feasregion.OnlineRequest{
			ID:       id,
			Deadline: deadline,
			Demands:  []time.Duration{appCost, dbCost},
		})
		if !ok {
			reqRejected.Inc()
			http.Error(w, "over capacity", http.StatusServiceUnavailable)
			return
		}
		// On any backend failure the admission charge is released so the
		// region does not bleed capacity.
		appStart := time.Now()
		if err := app.run(appCost); err != nil {
			ctrl.Release(id)
			http.Error(w, "app stage unavailable", http.StatusServiceUnavailable)
			return
		}
		sojournHist[0].Observe(time.Since(appStart).Seconds())
		ctrl.MarkDeparted(0, id)
		dbStart := time.Now()
		if err := db.run(dbCost); err != nil {
			ctrl.Release(id)
			http.Error(w, "db stage unavailable", http.StatusServiceUnavailable)
			return
		}
		sojournHist[1].Observe(time.Since(dbStart).Seconds())
		ctrl.MarkDeparted(1, id)
		reqOK.Inc()
		latency.Observe(time.Since(start).Seconds())
		fmt.Fprintln(w, "ok")
	})

	srv := httptest.NewServer(mux)
	defer srv.Close() // before the stage Closes: drain requests, then stop workers

	// Client side: 1500 requests at roughly 2x the db stage's capacity
	// (capacity ≈ 1/dbCost ≈ 333 req/s; we offer ≈ 660 req/s). For the
	// middle third the db backend runs 3x slow — the health monitor
	// should notice and throttle admission instead of letting accepted
	// requests pile into the slow stage.
	const total = 1500
	gap := 1500 * time.Microsecond
	var (
		mu        sync.Mutex
		latencies []time.Duration
		accepted  int
		rejected  int
		violated  int
	)
	var wg sync.WaitGroup
	client := srv.Client()

	// Background monitoring during the load: poll /metrics the way a
	// Prometheus scraper would. A scrape holds the controller's lock only
	// for a short read, so this loop barely contends with admission.
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	var scrapes, scrapeFailures int
	go func() {
		defer close(scrapeDone)
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-scrapeStop:
				return
			case <-ticker.C:
				resp, err := client.Get(srv.URL + "/metrics")
				if err != nil {
					scrapeFailures++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				scrapes++
			}
		}
	}()

	for i := 0; i < total; i++ {
		switch i {
		case total / 3:
			db.slowdown.Store(300)
		case 2 * total / 3:
			db.slowdown.Store(100)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			resp, err := client.Get(srv.URL)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			elapsed := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			if resp.StatusCode == http.StatusOK {
				accepted++
				latencies = append(latencies, elapsed)
				if elapsed > deadline {
					violated++
				}
			} else {
				rejected++
			}
		}()
		time.Sleep(gap)
	}
	wg.Wait()
	close(scrapeStop)
	<-scrapeDone

	// Batched admission: a webhook fan-in hands the service a burst of
	// events in one delivery. TryAdmitAll tests the whole batch under a
	// single lock acquisition and purge, each event against the state
	// left by its predecessors, and reports per-event outcomes.
	const burst = 64
	batch := make([]feasregion.OnlineRequest, burst)
	outcomes := make([]bool, burst)
	for i := range batch {
		batch[i] = feasregion.OnlineRequest{
			ID:       nextID.Add(1),
			Deadline: deadline,
			Demands:  []time.Duration{appCost, dbCost},
		}
	}
	burstAdmitted := ctrl.TryAdmitAll(batch, outcomes)
	for i, ok := range outcomes {
		if ok { // demo only: release instead of processing the event
			ctrl.Release(batch[i].ID)
		}
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}

	fmt.Printf("offered %d requests at ≈2x capacity, %v response-time goal, db 3x slow for the middle third\n", total, deadline)
	fmt.Printf("  accepted: %d (%.1f%%), rejected with 503: %d\n",
		accepted, 100*float64(accepted)/total, rejected)
	fmt.Printf("  goal violations among accepted: %d\n", violated)
	fmt.Printf("  latency p50 %v, p95 %v, p99 %v\n", pct(0.50), pct(0.95), pct(0.99))
	s := ctrl.Stats()
	fmt.Printf("  controller: %d admitted, %d rejected, %d reconcile passes, final utilizations %.3v\n",
		s.Admitted, s.Rejected, s.Reconciles, ctrl.Utilizations())
	dbHealth := mon.Health(1)
	fmt.Printf("  health monitor: %d scale changes, max scale %.3g, db stage ratio EWMA %.3g (scale now %.3g)\n",
		mon.ScaleChanges(), mon.MaxScaleApplied(), dbHealth.Ratio, dbHealth.Scale)
	as := adaptLoop.Snapshot()
	fmt.Printf("  adaptive loop: %d ticks, %d region updates, applied α %.3g, β %.3v (region bound now %.3g)\n",
		as.Ticks, as.RegionUpdates, as.Alpha, as.Betas, ctrl.Region().Bound())
	fmt.Printf("  background scraper: %d /metrics polls during the load (%d failed) — lock-free reads\n",
		scrapes, scrapeFailures)
	fmt.Printf("  webhook burst: TryAdmitAll admitted %d/%d events in one lock acquisition\n",
		burstAdmitted, burst)

	// Scrape /metrics the way Prometheus would and sanity-check the page.
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		fmt.Println("scraping /metrics:", err)
		return
	}
	defer resp.Body.Close()
	series, samples := 0, 0
	var shown []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			fmt.Printf("  UNPARSEABLE metrics line: %q\n", line)
			return
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			fmt.Printf("  UNPARSEABLE metrics value: %q\n", line)
			return
		}
		samples++
		if strings.HasPrefix(line, "feasregion_online_") || strings.HasPrefix(line, "httpserver_requests_") {
			series++
			if len(shown) < 8 {
				shown = append(shown, line)
			}
		}
	}
	fmt.Printf("\n/metrics: %d samples, all parseable; a slice:\n", samples)
	for _, line := range shown {
		fmt.Println("  " + line)
	}

	fmt.Println("\nThe admission controller bounded each stage's synthetic utilization;")
	fmt.Println("when the db backend degraded, the health monitor raised that stage's")
	fmt.Println("demand scale and the adaptive loop folded the unexplained sojourn")
	fmt.Println("tail into the region's β terms — admission throttled itself instead")
	fmt.Println("of accepting requests into a backlog they could never clear in time.")
}
