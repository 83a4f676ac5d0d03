package main

import (
	"fmt"
	"math"
	"path/filepath"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"arrivals_per_s", "1/s"},
	{"admit_p50_ns", "ns"},
	{"admit_p99_ns", "ns"},
	{"accept_ratio", "ratio"},
	{"utilization", "ratio"},
	{"allocs_per_arrival", "count"},
	{"bytes_per_arrival", "B"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the single-layer metrics of a traced run. A layer the
// workload does not drive reports 0.
var perLayer = []metricDef{
	{"workload.decode_ns_per_record", "ns"},
	{"des.ns_per_event", "ns"},
	{"des.events_per_arrival", "count"},
	{"des.step_self_ns", "ns"},
	{"core.tryadmit_ns.p50", "ns"},
	{"core.tryadmit_ns.p99", "ns"},
	{"core.admitted", "count"},
	{"core.rejected", "count"},
	{"core.idle_resets", "count"},
	{"pipeline.offer_ns.p50", "ns"},
	{"pipeline.offer_ns.p99", "ns"},
	{"pipeline.completed", "count"},
	{"pipeline.missed", "count"},
	{"sched.submitted", "count"},
	{"sched.preemptions", "count"},
	{"sched.busy_periods", "count"},
	{"sched.max_ready", "count"},
	{"sched.busy_frac", "ratio"},
	{"sched.stage_delay_mean_s", "s"},
	{"metrics.overhead_ns_per_arrival", "ns"},
	{"cluster.offer_ns.p50", "ns"},
	{"cluster.offer_ns.p99", "ns"},
	{"cluster.route_ns.p50", "ns"},
	{"cluster.route_ns.p99", "ns"},
	{"cluster.rollback_ratio", "ratio"},
	{"cluster.rejected", "count"},
	{"online.admitted", "count"},
	{"online.rejected", "count"},
	{"online.expired", "count"},
	{"online.idle_resets", "count"},
	{"online.cancelled", "count"},
	{"online.clock_regressions", "count"},
	{"expiry.expired_per_admit", "ratio"},
	{"shard.steals", "count"},
	{"shard.global_fallbacks", "count"},
	{"shard.rebalances", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// acceptTolerance bounds how far a concurrent online-wall pass over n
// requests may stray from the single-client reference acceptance. Two
// clients reorder neighbouring arrivals on the shared virtual clock, and
// the decision streams then diverge like a random walk, so the band is
// ±0.005 at the benchmark's sizes and widens as 2/√n on short traces.
func acceptTolerance(n uint64) float64 { return max(0.005, 2/math.Sqrt(float64(n))) }

const (
	setupRuns = 5 // set-ups timed per run; the median is reported
	auxRuns   = 3 // repetitions of each auxiliary pass of a traced run
	// minLatencySamples is the fewest latency samples a measured pass may
	// feed its p99, so that at least ten samples lie beyond it.
	minLatencySamples = 1000
)

// config controls one workload run. Only seed shapes the inputs; the
// rest sets how long they are measured.
type config struct {
	seed      int64
	seconds   float64 // measured passes repeat until this much time is spent
	minPasses int     // ... and at least this many have run
	trace     bool
	traceDir  string
	records   int // overrides the workload's size when > 0
}

func defaultConfig() config {
	return config{seed: 42, seconds: 10, minPasses: 5, traceDir: filepath.Join(".bench_build", "trace")}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run, as printed and as written by -json.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Records   int    `json:"records"`
	Passes    int    `json:"passes"`
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Errors    uint64 `json:"errors"`
	// LatencySamples is the fewest decision-call latencies any measured
	// pass of an untraced run fed its admit_p50_ns and admit_p99_ns.
	LatencySamples int `json:"latency_samples,omitempty"`
	// HostScale is the median over measured passes of the reference
	// seconds per host second (see hostScale).
	HostScale float64           `json:"host_scale,omitempty"`
	Digests   []string          `json:"digests,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// set records a metric under its declared unit; the name must be listed
// in defs.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.problem("metric %s is %v", name, v)
				v = 0
			}
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// tracedPass is what a traced pass leaves behind once its durations
// are summarized.
type tracedPass struct {
	pass
	callP50, callP99 float64
	stepSelfNs       float64
}

// runWorkload sets the workload up, warms it up with one pass, then
// repeats measured passes on fresh stacks and reports medians. The
// calibration job runs after every set-up and measured pass, to put its
// host time in reference seconds. A traced run alternates untraced and
// traced passes and reports the per-layer metrics. Failed correctness
// checks land in Problems; err is reserved for runs that could not
// proceed at all.
func runWorkload(def workloadDef, cfg config) (*result, error) {
	n := def.records
	if cfg.records > 0 {
		n = cfg.records
	}
	res := &result{Workload: def.name, Seed: cfg.seed, Trace: cfg.trace, Records: n, Metrics: map[string]metric{}}

	in := &input{}
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		t0 := mono()
		if err := setup(def, cfg.seed, n, in); err != nil {
			res.Errors++
			return res, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		secs := secondsSince(t0)
		setups = append(setups, secs*hostScale())
	}

	runPass := func(tr *tracer, metricsOn bool) (pass, error) {
		if def.stack == nil {
			return wallPass(in, clients, tr), nil
		}
		return simPass(def, in, metricsOn, tr)
	}
	warm, err := runPass(nil, true)
	if err != nil {
		res.Errors++
		return res, fmt.Errorf("%s warm-up: %w", def.name, err)
	}
	var passes []pass
	var traced []tracedPass
	var spans []spanRecord
	start := mono()
	for len(passes) < max(1, cfg.minPasses) || secondsSince(start) < cfg.seconds {
		p, err := runPass(nil, true)
		if err != nil {
			res.Errors++
			return res, fmt.Errorf("%s pass %d: %w", def.name, len(passes)+1, err)
		}
		p.refScale = hostScale()
		passes = append(passes, p)
		if !cfg.trace {
			continue
		}
		tr := newTracer(n)
		p, err = runPass(tr, true)
		if err != nil {
			res.Errors++
			return res, fmt.Errorf("%s traced pass %d: %w", def.name, len(traced)+1, err)
		}
		tp := tracedPass{pass: p, callP50: percentile(tr.call.durs, 0.50), callP99: percentile(tr.call.durs, 0.99)}
		if tr.step.count > 0 {
			tp.stepSelfNs = float64(tr.step.sum-tr.call.sum) / float64(tr.step.count)
		}
		traced = append(traced, tp)
		spans = append(spans, tr.records...)
	}
	res.Passes = len(passes)

	all := append([]pass{warm}, passes...)
	for _, tp := range traced {
		all = append(all, tp.pass)
	}
	checkPasses(res, def, in, all)
	for _, p := range passes {
		res.Attempted += p.arrivals
	}

	if cfg.trace {
		if err := layerMetrics(res, def, in, passes, traced); err != nil {
			res.Errors++
			return res, err
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", def.name, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			res.Errors++
			return res, err
		}
	} else {
		endToEndMetrics(res, passes, setups)
	}
	res.Failed += res.Errors
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// checkPasses applies the correctness checks across every pass of a
// run: identical decision digests on the simulated workloads,
// acceptance within tolerance of a single-client reference on
// online-wall, zero deadline misses and zero region violations.
func checkPasses(res *result, def workloadDef, in *input, all []pass) {
	for i, p := range all {
		for _, msg := range p.problems {
			res.problem("pass %d: %s", i, msg)
		}
		if p.missed > 0 {
			res.problem("pass %d: %d admitted tasks missed their deadline", i, p.missed)
		}
		if p.violations > 0 {
			res.problem("pass %d: %d admits left the feasible region", i, p.violations)
		}
		res.Failed += p.missed + p.violations
	}
	if def.stack == nil {
		ref := wallPass(in, 1, nil)
		want := float64(ref.admitted) / float64(ref.arrivals)
		for i, p := range all {
			if got := float64(p.admitted) / float64(p.arrivals); math.Abs(got-want) > acceptTolerance(p.arrivals) {
				res.problem("pass %d: accept ratio %.5f, single-client reference %.5f", i, got, want)
			}
		}
		return
	}
	for i, p := range all {
		res.Digests = append(res.Digests, fmt.Sprintf("%016x", p.digest))
		if p.digest != all[0].digest || p.admitted != all[0].admitted {
			res.problem("pass %d: decision digest %016x (%d admitted) differs from pass 0's %016x (%d admitted)",
				i, p.digest, p.admitted, all[0].digest, all[0].admitted)
		}
	}
}

// endToEndMetrics reports the medians of the measured passes and of the
// set-ups, host times in reference seconds, and checks that each pass's
// p99 rests on enough samples.
func endToEndMetrics(res *result, passes []pass, setups []float64) {
	var rate, p50, p99, accept, util, allocs, bytes, scale []float64
	res.LatencySamples = len(passes[0].lat)
	for _, p := range passes {
		res.LatencySamples = min(res.LatencySamples, len(p.lat))
		n := float64(p.arrivals)
		rate = append(rate, n/(p.seconds*p.refScale))
		p50 = append(p50, percentile(p.lat, 0.50)*p.refScale)
		p99 = append(p99, percentile(p.lat, 0.99)*p.refScale)
		accept = append(accept, float64(p.admitted)/n)
		util = append(util, p.util)
		allocs = append(allocs, float64(p.allocs)/n)
		bytes = append(bytes, float64(p.bytes)/n)
		scale = append(scale, p.refScale)
	}
	res.HostScale = median(scale)
	set := func(name string, v float64) { res.set(endToEnd, name, v) }
	set("setup_s", median(setups))
	set("arrivals_per_s", median(rate))
	set("admit_p50_ns", median(p50))
	set("admit_p99_ns", median(p99))
	set("accept_ratio", median(accept))
	set("utilization", median(util))
	set("allocs_per_arrival", median(allocs))
	set("bytes_per_arrival", median(bytes))
	set("peak_rss_mb", peakRSSMB())
	if res.LatencySamples < minLatencySamples {
		res.problem("admit_p99_ns rests on %d latency samples per pass, want at least %d", res.LatencySamples, minLatencySamples)
	}
}

// layerMetrics reports the per-layer metrics of a traced run: counters
// from the last traced pass, span timings over the traced passes, and
// the auxiliary ladder passes (decode only against decode plus event
// core, and for sim-pipeline passes with against without the metrics
// registry), each pair run back to back so that both sides see the same
// host conditions. Host times are medians, as for the end-to-end
// metrics.
func layerMetrics(res *result, def workloadDef, in *input, passes []pass, traced []tracedPass) error {
	for _, d := range perLayer {
		res.set(perLayer, d.name, 0)
	}
	last := traced[len(traced)-1]
	for name, v := range last.layers {
		res.set(perLayer, name, v)
	}
	n := float64(in.records)
	var decode, sink []float64
	for k := 0; k < auxRuns; k++ {
		d, err := decodePass(in)
		if err != nil {
			return fmt.Errorf("%s decode pass: %w", def.name, err)
		}
		s, err := sinkPass(in)
		if err != nil {
			return fmt.Errorf("%s event-core pass: %w", def.name, err)
		}
		decode, sink = append(decode, d), append(sink, s)
	}
	res.set(perLayer, "workload.decode_ns_per_record", median(decode)/n*1e9)
	res.set(perLayer, "des.ns_per_event", (median(sink)-median(decode))/n*1e9)

	var p50, p99, self, tracedRate, rate []float64
	for _, tp := range traced {
		p50 = append(p50, tp.callP50)
		p99 = append(p99, tp.callP99)
		self = append(self, tp.stepSelfNs)
		tracedRate = append(tracedRate, float64(tp.arrivals)/tp.seconds)
	}
	for _, p := range passes {
		rate = append(rate, float64(p.arrivals)/p.seconds)
	}
	res.set(perLayer, def.callSpan+"_ns.p50", median(p50))
	res.set(perLayer, def.callSpan+"_ns.p99", median(p99))
	res.set(perLayer, "trace.overhead_ratio", median(tracedRate)/median(rate))
	if def.stack == nil {
		return nil
	}
	res.set(perLayer, "des.events_per_arrival", float64(last.events)/float64(last.arrivals))
	res.set(perLayer, "des.step_self_ns", median(self))
	if def.name == "sim-pipeline" {
		var with, bare []float64
		for k := 0; k < auxRuns; k++ {
			for _, on := range []bool{true, false} {
				p, err := simPass(def, in, on, nil)
				if err != nil {
					return fmt.Errorf("%s pass (metrics %t): %w", def.name, on, err)
				}
				if on {
					with = append(with, p.seconds)
				} else {
					bare = append(bare, p.seconds)
				}
			}
		}
		res.set(perLayer, "metrics.overhead_ns_per_arrival", (median(with)-median(bare))/n*1e9)
	}
	return nil
}
