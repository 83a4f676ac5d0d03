package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"feasregion/internal/cluster"
	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/online"
	"feasregion/internal/pipeline"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

const (
	stages   = 3 // pipeline length of the replay scenario
	replicas = 4 // fleet size of sim-fleet and online-wall
	clients  = 2 // closed-loop callers of online-wall
	// latencyEvery is the admit-latency sampling rate: every
	// latencyEvery-th arrival's decision call is timed. Timing costs two
	// clock reads (~70 ns), so timing every call would inflate the cost
	// being measured.
	latencyEvery = 16
	// regionEps absorbs float rounding between the admission test's
	// sum and a region value recomputed from the ledgers.
	regionEps = 1e-9
)

// workloadDef is one benchmark workload: a size, a load level and the
// stack the trace is replayed through.
type workloadDef struct {
	name    string
	records int     // arrivals offered per pass
	rate    float64 // workload.ReplayOptions.RateMultiplier
	// stack builds a fresh simulated stack; nil for online-wall, which
	// drives a wall-clock cluster from concurrent clients instead.
	stack func(sim *des.Simulator, reg *metrics.Registry) *simStack
	// callSpan names the traced span around the stack's decision call.
	callSpan string
}

var workloads = []workloadDef{
	{name: "sim-admit", records: 1_000_000, rate: 6, stack: admitStack, callSpan: "core.tryadmit"},
	{name: "sim-pipeline", records: 150_000, rate: 12, stack: pipelineStack, callSpan: "pipeline.offer"},
	{name: "sim-fleet", records: 100_000, rate: 48, stack: fleetStack, callSpan: "cluster.offer"},
	{name: "online-wall", records: 400_000, rate: 24, callSpan: "cluster.route"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scenario is the -run replay scenario of cmd/experiments: a diurnal
// 0.3→0.7→0.3 curve over one day with a 1.8× flash crowd, then a
// steady 0.3 tail, over interactive, batch and control cohorts. The
// horizon leaves a 5 % margin so the trace holds at least records
// arrivals.
func scenario(seed int64, records int) *workload.Scenario {
	const day = 1e4
	return &workload.Scenario{
		Stages:     stages,
		MeanDemand: 1.0 / 3,
		Curve: []workload.RatePoint{
			{At: 0, Rate: 0.3},
			{At: day / 2, Rate: 0.7},
			{At: day, Rate: 0.3},
		},
		Cohorts: []workload.Cohort{
			{Name: "interactive", Share: 0.6, DemandScale: 0.7, Resolution: 120},
			{Name: "batch", Share: 0.3, DemandScale: 1.5, Resolution: 400},
			{Name: "control", Share: 0.1, DemandScale: 0.4, Resolution: 40},
		},
		Crowds:  []workload.FlashCrowd{{Start: day / 4, Duration: day / 20, Multiplier: 1.8}},
		Horizon: max(1.05*float64(records)/0.3, 4*day),
		Seed:    seed,
	}
}

// input is a workload's prepared input: the FRTRACE bytes and, for
// online-wall, the records decoded into requests.
type input struct {
	trace   bytes.Buffer
	records int
	rate    float64

	reqs   []online.Request
	at     []int64   // virtual arrival time of each request, ns
	demand []float64 // total demand of each request, trace units
}

// setup synthesizes the trace into in (reusing its buffers) and, for
// online-wall, decodes it into requests.
func setup(def workloadDef, seed int64, records int, in *input) error {
	in.records, in.rate = records, def.rate
	in.trace.Reset()
	in.trace.Grow(64 + int(1.1*float64(records))*(17+8*stages))
	n, err := scenario(seed, records).RecordTrace(&in.trace)
	if err != nil {
		return fmt.Errorf("synthesizing trace: %w", err)
	}
	if n < uint64(records) {
		return fmt.Errorf("trace holds %d records, want %d", n, records)
	}
	if def.stack == nil {
		return decodeRequests(in)
	}
	return nil
}

// decodeRequests turns the first in.records trace records into online
// requests. One trace unit is one millisecond; RateMultiplier divides
// arrival times only, as the replayer does.
func decodeRequests(in *input) error {
	tr, err := workload.OpenTrace(bytes.NewReader(in.trace.Bytes()))
	if err != nil {
		return err
	}
	n, k := in.records, tr.Stages()
	if len(in.reqs) != n {
		in.reqs = make([]online.Request, n)
		in.at = make([]int64, n)
		in.demand = make([]float64, n)
	}
	demands := make([]time.Duration, n*k)
	var rec workload.TraceRecord
	for i := range in.reqs {
		if err := tr.Next(&rec); err != nil {
			return fmt.Errorf("decoding record %d: %w", i, err)
		}
		d := demands[i*k : (i+1)*k : (i+1)*k]
		sum := 0.0
		for j, c := range rec.Demands {
			d[j] = time.Duration(c * float64(time.Millisecond))
			sum += c
		}
		in.reqs[i] = online.Request{ID: uint64(i), Deadline: time.Duration(rec.Deadline * float64(time.Millisecond)), Demands: d}
		in.at[i] = int64(rec.Arrival / in.rate * float64(time.Millisecond))
		in.demand[i] = sum
	}
	return nil
}

// pass is the outcome of replaying the trace once through a fresh stack.
type pass struct {
	seconds   float64
	arrivals  uint64
	admitted  uint64
	completed uint64
	missed    uint64
	events    uint64
	digest    uint64  // FNV-1a over the (id, decision, arrival) stream
	demand    float64 // total computation of the admitted tasks
	span      float64 // arrival time of the last arrival
	util      float64 // mean stage utilization (see README)
	lat       []int64 // sampled decision-call latencies, ns
	allocs    uint64
	bytes     uint64
	refScale  float64 // reference seconds per host second after the pass

	violations uint64             // region-invariant failures (traced passes)
	problems   []string           // failed correctness checks
	layers     map[string]float64 // per-layer counters read after the run
}

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// checkDrained records a problem unless the drained simulation finished
// every admitted task; only stacks with stage schedulers finish tasks.
func (p *pass) checkDrained() {
	if p.completed != p.admitted {
		p.problem("%d tasks admitted but %d completed", p.admitted, p.completed)
	}
}

// simStack is one simulated stack, built fresh for every pass.
type simStack struct {
	offer func(*task.Task) bool
	// reuse is true when the stack never retains an offered task, so
	// the replayer may recycle one task value.
	reuse bool
	// inRegion is the region-invariant oracle, checked after every
	// admit in a traced pass.
	inRegion func() bool
	// finish reads the stack's outcome and per-layer counters once the
	// simulation has drained.
	finish func(p *pass)
}

// admitStack is region admission alone: core.Controller.TryAdmit with
// no stage schedulers, so contributions leave only at their deadlines.
func admitStack(sim *des.Simulator, _ *metrics.Registry) *simStack {
	ctl := core.NewController(sim, core.NewRegion(stages), nil)
	return &simStack{
		offer:    ctl.TryAdmit,
		reuse:    true,
		inRegion: func() bool { return ctl.Value() <= ctl.Region().Bound()+regionEps },
		finish: func(p *pass) {
			// No stage runs: utilization is the admitted work per stage
			// over the arrival span.
			p.util = p.demand / (stages * p.span)
			coreLayers(p, ctl)
		},
	}
}

// pipelineStack is the full simulated pipeline: region admission, DM
// stage schedulers, departures, idle reset and the metrics registry.
func pipelineStack(sim *des.Simulator, reg *metrics.Registry) *simStack {
	p := pipeline.New(sim, pipeline.Options{Stages: stages, Metrics: reg})
	p.BeginMeasurement()
	ctl := p.Controller()
	return &simStack{
		offer:    p.Offer,
		inRegion: func() bool { return ctl.Value() <= ctl.Region().Bound()+regionEps },
		finish: func(ps *pass) {
			m := p.Snapshot()
			ps.util, ps.completed, ps.missed = m.MeanUtilization, m.Completed, m.Missed
			ps.checkDrained()
			coreLayers(ps, ctl)
			pipelineLayers(ps, []pipeline.Metrics{m}, []*pipeline.Pipeline{p})
		},
	}
}

// fleetStack is four simulated replica pipelines behind the cluster
// router (power of two choices), each admitting through its own online
// controller on the simulated clock.
func fleetStack(sim *des.Simulator, _ *metrics.Registry) *simStack {
	cp := pipeline.NewCluster(sim, pipeline.ClusterOptions{
		Stages:   stages,
		Replicas: replicas,
		Policy:   cluster.PowerOfTwo,
		Seed:     7,
		Scaler:   cluster.AutoscalerConfig{Min: replicas, Max: replicas},
	})
	cp.BeginMeasurement()
	reps := cp.Cluster().Replicas()
	return &simStack{
		offer: cp.Offer,
		inRegion: func() bool {
			for _, r := range reps {
				if _, v := r.Snapshot(); v > r.Controller().Bound()+regionEps {
					return false
				}
			}
			return true
		},
		finish: func(ps *pass) {
			m := cp.Snapshot()
			ps.completed, ps.missed = m.Completed, m.Missed
			ps.checkDrained()
			var ms []pipeline.Metrics
			var pipes []*pipeline.Pipeline
			for _, r := range reps {
				rm := m.Replicas[r.ID()]
				ps.util += rm.Pipeline.MeanUtilization / float64(len(reps))
				ms = append(ms, rm.Pipeline)
				pipes = append(pipes, cp.Pipe(r.ID()))
			}
			pipelineLayers(ps, ms, pipes)
			clusterLayers(ps, cp.Cluster(), m.Offered)
		},
	}
}

// coreLayers reads the admission controller's counters.
func coreLayers(ps *pass, ctl *core.Controller) {
	st := ctl.Stats()
	var resets uint64
	for j := 0; j < stages; j++ {
		resets += ctl.Ledger(j).Resets()
	}
	ps.layers["core.admitted"] = float64(st.Admitted)
	ps.layers["core.rejected"] = float64(st.Rejected)
	ps.layers["core.idle_resets"] = float64(resets)
}

// pipelineLayers sums the pipeline and stage-scheduler counters.
func pipelineLayers(ps *pass, ms []pipeline.Metrics, pipes []*pipeline.Pipeline) {
	var st struct{ submitted, preemptions, busyPeriods, maxReady uint64 }
	delay, n := 0.0, 0
	for i, p := range pipes {
		ps.layers["pipeline.completed"] += float64(ms[i].Completed)
		ps.layers["pipeline.missed"] += float64(ms[i].Missed)
		ps.layers["sched.busy_frac"] += ms[i].MeanUtilization / float64(len(pipes))
		for j := 0; j < p.Stages(); j++ {
			s := p.Stage(j).Stats()
			st.submitted += s.Submitted
			st.preemptions += s.Preemptions
			st.busyPeriods += s.BusyPeriods
			st.maxReady = max(st.maxReady, uint64(s.MaxReady))
			if d := ms[i].StageDelays[j]; d.Count() > 0 {
				delay += d.Mean()
				n++
			}
		}
	}
	ps.layers["sched.submitted"] = float64(st.submitted)
	ps.layers["sched.preemptions"] = float64(st.preemptions)
	ps.layers["sched.busy_periods"] = float64(st.busyPeriods)
	ps.layers["sched.max_ready"] = float64(st.maxReady)
	if n > 0 {
		ps.layers["sched.stage_delay_mean_s"] = delay / float64(n)
	}
}

// clusterLayers sums the router and per-replica online-controller
// counters; offered is the number of requests routed.
func clusterLayers(ps *pass, c *cluster.Cluster, offered uint64) {
	rs := c.Router().Stats()
	if offered > 0 {
		ps.layers["cluster.rollback_ratio"] = float64(rs.Rollbacks) / float64(offered)
	}
	ps.layers["cluster.rejected"] = float64(rs.Rejected)
	var sum online.Stats
	for _, r := range c.Replicas() {
		s := r.Controller().Stats()
		sum.Admitted += s.Admitted
		sum.Rejected += s.Rejected
		sum.Expired += s.Expired
		sum.IdleResets += s.IdleResets
		sum.Cancelled += s.Cancelled
		sum.ClockRegressions += s.ClockRegressions
		sum.Steals += s.Steals
		sum.GlobalFallbacks += s.GlobalFallbacks
		sum.Rebalances += s.Rebalances
	}
	ps.layers["online.admitted"] = float64(sum.Admitted)
	ps.layers["online.rejected"] = float64(sum.Rejected)
	ps.layers["online.expired"] = float64(sum.Expired)
	ps.layers["online.idle_resets"] = float64(sum.IdleResets)
	ps.layers["online.cancelled"] = float64(sum.Cancelled)
	ps.layers["online.clock_regressions"] = float64(sum.ClockRegressions)
	if sum.Admitted > 0 {
		ps.layers["expiry.expired_per_admit"] = float64(sum.Expired) / float64(sum.Admitted)
	}
	ps.layers["shard.steals"] = float64(sum.Steals)
	ps.layers["shard.global_fallbacks"] = float64(sum.GlobalFallbacks)
	ps.layers["shard.rebalances"] = float64(sum.Rebalances)
	if rs.Placed+rs.Rejected != offered {
		ps.problem("router counted %d placed + %d rejected for %d requests", rs.Placed, rs.Rejected, offered)
	}
	if sum.Admitted != rs.Placed {
		ps.problem("replicas admitted %d requests, router placed %d", sum.Admitted, rs.Placed)
	}
}

// simPass replays the trace once through a fresh simulated stack, with
// a metrics registry attached when metricsOn. A non-nil tracer records
// a span around every Step and every decision call, and checks the
// region invariant after every admit. Building the stack counts toward
// the pass's allocations but not its time.
func simPass(def workloadDef, in *input, metricsOn bool, tr *tracer) (pass, error) {
	p := pass{digest: fnvOffset, layers: map[string]float64{}}
	p.lat = make([]int64, 0, in.records/latencyEvery+1)
	runtime.GC()
	var md memDelta
	md.start()

	sim := des.New()
	var reg *metrics.Registry
	if metricsOn {
		reg = metrics.NewRegistry()
	}
	st := def.stack(sim, reg)
	r, err := workload.OpenTrace(bytes.NewReader(in.trace.Bytes()))
	if err != nil {
		return p, err
	}
	var (
		i       uint64
		stepID  uint64 // traced: the Step span enclosing the call
		sampled bool   // traced: this step's spans go to the span file
		check   bool   // traced: the step admitted, check the region
		request uint64
	)
	decide := func(t *task.Task) bool {
		if i%latencyEvery != 0 {
			return st.offer(t)
		}
		t0 := mono()
		ok := st.offer(t)
		p.lat = append(p.lat, mono()-t0)
		return ok
	}
	if tr != nil {
		decide = func(t *task.Task) bool {
			t0 := mono()
			ok := st.offer(t)
			t1 := mono()
			tr.call.add(t1 - t0)
			if i%latencyEvery == 0 {
				p.lat = append(p.lat, t1-t0)
			}
			if i%sampleEvery == 0 {
				sampled, request = true, uint64(t.ID)
				tr.records = append(tr.records, spanRecord{ID: tr.id(), Request: request, Name: def.callSpan, Start: t0, End: t1, Parent: stepID})
			}
			check = ok
			return ok
		}
	}
	offer := func(t *task.Task) {
		d := uint64(0)
		if decide(t) {
			d = 1
			p.admitted++
			p.demand += t.TotalDemand()
		}
		p.digest = fnvFold(p.digest, uint64(t.ID)<<1|d)
		p.digest = fnvFold(p.digest, math.Float64bits(t.Arrival))
		p.span = t.Arrival
		i++
	}
	rp, err := workload.NewReplayer(sim, r, workload.ReplayOptions{
		RateMultiplier: in.rate,
		Limit:          uint64(in.records),
		ReuseTask:      st.reuse,
	}, offer)
	if err != nil {
		return p, err
	}

	start := mono()
	if err := rp.Start(); err != nil {
		return p, fmt.Errorf("starting replay: %w", err)
	}
	if tr == nil {
		sim.Run()
	} else {
		for {
			stepID = tr.id()
			t0 := mono()
			ok := sim.Step()
			t1 := mono()
			if !ok {
				break
			}
			tr.step.add(t1 - t0)
			if sampled {
				tr.records = append(tr.records, spanRecord{ID: stepID, Request: request, Name: "des.step", Start: t0, End: t1})
				sampled = false
			}
			if check {
				if !st.inRegion() {
					p.violations++
				}
				check = false
			}
		}
	}
	p.seconds = float64(mono()-start) / 1e9
	p.allocs, p.bytes = md.stop()
	if err := rp.Err(); err != nil {
		return p, fmt.Errorf("replaying: %w", err)
	}
	p.arrivals = rp.Replayed()
	p.events = sim.Steps()
	p.digest = fnvFold(p.digest, math.Float64bits(sim.Now()))
	st.finish(&p)
	if p.arrivals != uint64(in.records) {
		p.problem("replayed %d of %d records", p.arrivals, in.records)
	}
	return p, nil
}

// wallClient is one closed-loop caller of online-wall.
type wallClient struct {
	admitted   uint64
	demand     float64
	lat        []int64
	violations uint64
	tr         *tracer
}

// wallPass routes every request once through a fresh four-replica
// cluster from n concurrent closed-loop clients. Each client takes the
// next request, advances the shared virtual clock to its arrival time
// (a monotone max, so the clock never runs backwards) and calls Route.
// Reservations leave only by deadline expiry. A non-nil tracer times
// every call and checks the region invariant after every admit.
func wallPass(in *input, n int, tr *tracer) pass {
	p := pass{layers: map[string]float64{}}
	runtime.GC()
	var md memDelta
	md.start()

	var clock atomic.Int64
	c := cluster.New(cluster.Options{
		Region: core.NewRegion(stages),
		Online: online.Config{Clock: func() time.Time { return time.Unix(0, clock.Load()) }},
		Policy: cluster.PowerOfTwo,
		Seed:   7,
		Scaler: cluster.AutoscalerConfig{Min: replicas, Max: replicas},
	})
	cs := make([]*wallClient, n)
	for k := range cs {
		cs[k] = &wallClient{lat: make([]int64, 0, in.records/latencyEvery/n+16)}
		if tr != nil {
			cs[k].tr = newTracer(in.records/n + 16)
			cs[k].tr.nextID = uint64(k) << 48
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := mono()
	for _, cl := range cs {
		wg.Add(1)
		go func(cl *wallClient) {
			defer wg.Done()
			cl.run(c, in, &next, &clock)
		}(cl)
	}
	wg.Wait()
	p.seconds = float64(mono()-start) / 1e9
	p.allocs, p.bytes = md.stop()

	for _, cl := range cs {
		p.admitted += cl.admitted
		p.demand += cl.demand
		p.lat = append(p.lat, cl.lat...)
		p.violations += cl.violations
		if tr != nil {
			tr.merge(cl.tr)
		}
	}
	p.arrivals = uint64(len(in.reqs))
	// No stage runs: utilization is the admitted work per replica stage
	// over the arrival span (trace units).
	p.span = float64(in.at[len(in.at)-1]) / float64(time.Millisecond)
	p.util = p.demand / (stages * replicas * p.span)
	clusterLayers(&p, c, p.arrivals)
	return p
}

func (cl *wallClient) run(c *cluster.Cluster, in *input, next, clock *atomic.Int64) {
	n := int64(len(in.reqs))
	for {
		i := next.Add(1) - 1
		if i >= n {
			return
		}
		at := in.at[i]
		for cur := clock.Load(); at > cur && !clock.CompareAndSwap(cur, at); cur = clock.Load() {
		}
		var rep *cluster.Replica
		var ok bool
		switch {
		case cl.tr != nil:
			t0 := mono()
			rep, ok = c.Route(in.reqs[i])
			t1 := mono()
			cl.tr.call.add(t1 - t0)
			if i%latencyEvery == 0 {
				cl.lat = append(cl.lat, t1-t0)
			}
			if i%sampleEvery == 0 {
				cl.tr.records = append(cl.tr.records, spanRecord{ID: cl.tr.id(), Request: uint64(i), Name: "cluster.route", Start: t0, End: t1})
			}
			if ok {
				ctl := rep.Controller()
				if ctl.Region().Value(ctl.Utilizations()) > ctl.Bound()+regionEps {
					cl.violations++
				}
			}
		case i%latencyEvery == 0:
			t0 := mono()
			_, ok = c.Route(in.reqs[i])
			cl.lat = append(cl.lat, mono()-t0)
		default:
			_, ok = c.Route(in.reqs[i])
		}
		if ok {
			cl.admitted++
			cl.demand += in.demand[i]
		}
	}
}

// decodePass decodes the trace's first in.records records and nothing
// else — the first rung of the layer ladder.
func decodePass(in *input) (float64, error) {
	r, err := workload.OpenTrace(bytes.NewReader(in.trace.Bytes()))
	if err != nil {
		return 0, err
	}
	var rec workload.TraceRecord
	start := mono()
	for i := 0; i < in.records; i++ {
		if err := r.Next(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return 0, fmt.Errorf("trace ended after %d records", i)
			}
			return 0, err
		}
	}
	return float64(mono()-start) / 1e9, nil
}

// sinkPass replays the trace through a bare simulator into a sink that
// discards every task — decode plus the event core, no admission.
func sinkPass(in *input) (float64, error) {
	sim := des.New()
	r, err := workload.OpenTrace(bytes.NewReader(in.trace.Bytes()))
	if err != nil {
		return 0, err
	}
	rp, err := workload.NewReplayer(sim, r, workload.ReplayOptions{
		RateMultiplier: in.rate,
		Limit:          uint64(in.records),
		ReuseTask:      true,
	}, func(*task.Task) {})
	if err != nil {
		return 0, err
	}
	start := mono()
	if err := rp.Start(); err != nil {
		return 0, err
	}
	sim.Run()
	secs := float64(mono()-start) / 1e9
	return secs, rp.Err()
}
