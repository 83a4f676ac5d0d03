// Command pipesim runs one configurable pipeline simulation and reports
// the resulting utilization, acceptance, miss-ratio, and response-time
// statistics. It is the interactive companion to cmd/experiments.
// Its p50/p95/p99 come from its own P² estimators (stats.Quantile), fed
// by the pipeline's OnComplete callback over the measurement window.
// -replay plays FRTRACE or an arrival-sorted CSV; -record writes FRTRACE.
//
// Example:
//
//	pipesim -stages 3 -load 1.2 -resolution 100 -horizon 5000
//	pipesim -stages 2 -admission none -load 1.5        # baseline, misses
//	pipesim -stages 2 -admission approx -resolution 10 # §4.4
//	pipesim -stages 2 -imbalance 4                     # Fig. 6 regime
//	pipesim -horizon 300 -record w.trace               # save the arrivals
//	pipesim -replay w.trace                            # and play them again
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"feasregion/internal/baseline"
	"feasregion/internal/core"
	"feasregion/internal/curve"
	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/trace"
	"feasregion/internal/workload"
)

func main() {
	code, _ := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(code)
}

// run is pipesim with its arguments and output streams; it returns the
// exit code and the response-time p50, p95 and p99 it printed.
func run(args []string, stdout, stderr io.Writer) (code int, resp [3]float64) {
	fs := flag.NewFlagSet("pipesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		stages     = fs.Int("stages", 2, "pipeline length N")
		load       = fs.Float64("load", 1.0, "offered load as a fraction of bottleneck stage capacity")
		resolution = fs.Float64("resolution", 100, "mean deadline / mean total computation")
		imbalance  = fs.Float64("imbalance", 1, "two-stage mean-demand ratio (requires -stages 2 when != 1)")
		policyName = fs.String("policy", "dm", "scheduling policy: dm, edf, random, fifo")
		admission  = fs.String("admission", "exact", "admission control: exact, approx, split, none")
		alpha      = fs.Float64("alpha", 0, "urgency-inversion parameter override (0 = policy default)")
		maxWait    = fs.Float64("maxwait", 0, "hold non-admissible arrivals up to this long")
		noReset    = fs.Bool("noreset", false, "disable the idle reset (ablation)")
		horizon    = fs.Float64("horizon", 4000, "simulated time units of arrivals")
		warmup     = fs.Float64("warmup", 400, "warmup before measurement starts")
		seed       = fs.Int64("seed", 1, "random seed")
		traceOut   = fs.String("trace", "", "write an event trace CSV to this file (implies a short horizon is wise)")
		replayPath = fs.String("replay", "", "replay a workload trace instead of generating one: FRTRACE, or an arrival-sorted CSV (arrival,deadline,c1..cN)")
		recordPath = fs.String("record", "", "also save the offered workload to this file as an FRTRACE trace")
		timeline   = fs.Bool("timeline", false, "print an ASCII execution timeline (use with small -horizon)")
		curvePlot  = fs.Bool("curve", false, "print the synthetic-utilization step curves (paper Fig. 1) per stage")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0, resp
	} else if err != nil {
		return 2, resp
	}

	var replay *workload.TraceReader
	var due int // replayed arrivals at or before the horizon
	if *replayPath != "" {
		var err error
		if replay, *horizon, due, err = openReplay(*replayPath, *horizon); err != nil {
			fmt.Fprintf(stderr, "pipesim: %v\n", err)
			return 1, resp
		}
		*stages = replay.Stages()
	}

	spec := workload.PipelineSpec{
		Stages:     *stages,
		Load:       *load,
		MeanDemand: 1,
		Resolution: *resolution,
	}
	if *imbalance != 1 {
		if *stages != 2 {
			fmt.Fprintln(stderr, "pipesim: -imbalance requires -stages 2")
			return 2, resp
		}
		spec.StageScale = workload.ImbalanceScales(*imbalance)
	}

	var policy task.Policy
	defaultAlpha := 1.0
	switch *policyName {
	case "dm":
		policy = task.DeadlineMonotonic{}
	case "edf":
		policy = task.EDF{}
	case "random":
		policy = task.Random{}
		defaultAlpha = 1.0 / 3 // deadlines uniform in mean·[0.5, 1.5]
	case "fifo":
		policy = task.FIFO{}
	default:
		fmt.Fprintf(stderr, "pipesim: unknown policy %q\n", *policyName)
		return 2, resp
	}
	if *alpha == 0 {
		*alpha = defaultAlpha
	}

	sim := des.New()
	opts := pipeline.Options{
		Stages:           *stages,
		Policy:           policy,
		MaxWait:          *maxWait,
		DisableIdleReset: *noReset,
		PriorityRNG:      dist.NewRNG(*seed + 7),
	}
	region := core.NewRegion(*stages).WithAlpha(*alpha)
	switch *admission {
	case "exact":
		opts.Region = &region
	case "approx":
		opts.Region = &region
		opts.Estimator = core.MeanDemand(spec.StageMeans())
	case "split":
		opts.Admitter = baseline.NewSplitDeadlineController(sim, *stages)
	case "none":
		opts.NoAdmission = true
	default:
		fmt.Fprintf(stderr, "pipesim: unknown admission mode %q\n", *admission)
		return 2, resp
	}

	var rec *trace.Recorder
	if *traceOut != "" || *timeline {
		rec = trace.New(0)
		opts.Trace = rec
	}
	p := pipeline.New(sim, opts)
	var curves *curve.Recorder
	if *curvePlot {
		if p.Controller() == nil {
			fmt.Fprintln(stderr, "pipesim: -curve requires the feasible-region controller (admission exact/approx)")
			return 2, resp
		}
		curves = curve.NewRecorder(*stages, nil)
		p.Controller().OnUtilizationChange(curves.Observe)
	}
	offer := func(tk *task.Task) { p.Offer(tk) }
	var tw *workload.TraceWriter
	var recorded *os.File
	if *recordPath != "" {
		var err error
		if recorded, err = os.Create(*recordPath); err == nil {
			defer recorded.Close() // for the error paths; the success path checks Close
			tw, err = workload.NewTraceWriter(recorded, *stages, nil)
		}
		if err != nil {
			fmt.Fprintf(stderr, "pipesim: %v\n", err)
			return 1, resp
		}
		demands, sink := make([]float64, *stages), offer
		offer = func(tk *task.Task) {
			for j := range demands {
				demands[j] = tk.StageDemand(j)
			}
			_ = tw.Write(tk.Arrival, tk.Deadline, -1, demands) // the first error sticks: Close returns it
			sink(tk)
		}
	}
	q := [3]*stats.Quantile{stats.NewQuantile(0.50), stats.NewQuantile(0.95), stats.NewQuantile(0.99)}
	p.OnComplete(func(response float64, _ bool) {
		for _, e := range q {
			e.Add(response)
		}
	})
	var m pipeline.Metrics
	snapshot := func() { m, resp = p.Snapshot(), [3]float64{q[0].Value(), q[1].Value(), q[2].Value()} }
	if replay != nil {
		// The replayer arms each arrival when the one before it fires, so an
		// arrival at the horizon would run after a snapshot scheduled now:
		// the snapshot is scheduled once the last such arrival is offered.
		sink, offered := offer, 0
		offer = func(tk *task.Task) {
			sink(tk)
			if offered++; offered == due {
				sim.At(*horizon, snapshot)
			}
		}
		rp, err := workload.NewReplayer(sim, replay, workload.ReplayOptions{}, offer)
		if err == nil {
			err = rp.Start()
		}
		if err != nil {
			fmt.Fprintf(stderr, "pipesim: %v\n", err)
			return 1, resp
		}
	} else {
		workload.NewSource(sim, spec, *seed, *horizon, offer).Start()
	}
	sim.At(*warmup, func() { p.BeginMeasurement() })
	if due == 0 {
		sim.At(*horizon, snapshot)
	}
	sim.Run()

	if tw != nil {
		err := tw.Close()
		if err == nil {
			err = recorded.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "pipesim: writing workload: %v\n", err)
			return 1, resp
		}
		fmt.Fprintf(stdout, "workload: %d tasks recorded to %s\n", tw.Count(), *recordPath)
	}

	fmt.Fprintf(stdout, "pipeline: %d stages, policy=%s, admission=%s, load=%.0f%%, resolution=%g\n",
		*stages, *policyName, *admission, *load*100, *resolution)
	fmt.Fprintf(stdout, "arrival rate: %.4g/s over horizon %.4g (warmup %.4g), %d arrivals measured\n",
		spec.ArrivalRate(), *horizon, *warmup, m.Offered)
	fmt.Fprintf(stdout, "accepted: %d/%d (%.1f%%)\n", m.EnteredService, m.Offered, m.AcceptRatio*100)
	fmt.Fprintf(stdout, "completed: %d, missed: %d (miss ratio %.5f)\n", m.Completed, m.Missed, m.MissRatio)
	for j, u := range m.StageUtilization {
		fmt.Fprintf(stdout, "stage %d real utilization: %.4f\n", j+1, u)
	}
	fmt.Fprintf(stdout, "mean stage utilization: %.4f (bottleneck %.4f)\n", m.MeanUtilization, m.BottleneckUtilization)
	if m.ResponseTimes.Count() > 0 {
		fmt.Fprintf(stdout, "response times: mean %.4g, p50 %.4g, p95 %.4g, p99 %.4g, max %.4g (n=%d)\n",
			m.ResponseTimes.Mean(), resp[0], resp[1], resp[2],
			m.ResponseTimes.Max(), m.ResponseTimes.Count())
	}
	if wq := p.WaitQueue(); wq != nil {
		ws := wq.Stats()
		fmt.Fprintf(stdout, "wait queue: %d immediate, %d after wait, %d timed out\n",
			ws.AdmittedImmediately, ws.AdmittedAfterWait, ws.TimedOut)
	}
	if sim.Steps() == 0 {
		fmt.Fprintln(stderr, "pipesim: no events executed")
		return 1, resp
	}
	if curves != nil {
		fmt.Fprintln(stdout)
		for j := 0; j < *stages; j++ {
			if err := curves.Render(stdout, j, *warmup, *horizon, 100, 6); err != nil {
				fmt.Fprintf(stderr, "pipesim: rendering curve: %v\n", err)
				return 1, resp
			}
		}
	}
	if rec != nil {
		if *timeline {
			fmt.Fprintln(stdout)
			if err := rec.RenderTimeline(stdout, 100, *warmup, *horizon); err != nil {
				fmt.Fprintf(stderr, "pipesim: rendering timeline: %v\n", err)
				return 1, resp
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(stderr, "pipesim: %v\n", err)
				return 1, resp
			}
			defer f.Close()
			if err := rec.WriteCSV(f); err != nil {
				fmt.Fprintf(stderr, "pipesim: writing trace: %v\n", err)
				return 1, resp
			}
			fmt.Fprintf(stdout, "trace: %d events written to %s (%d dropped)\n", rec.Len(), *traceOut, rec.Dropped())
		}
	}
	return 0, resp
}

// openReplay reads a workload trace for -replay: FRTRACE as it is, or an
// arrival-sorted CSV (arrival,deadline,c1..cN, optional header) imported
// into FRTRACE in memory. One pass over the records checks them, clamps
// horizon to the last arrival and counts the arrivals at or before it;
// the returned reader is positioned at the first record.
func openReplay(path string, horizon float64) (tr *workload.TraceReader, clamped float64, due int, err error) {
	data, err := os.ReadFile(path)
	if err == nil && !bytes.HasPrefix(data, []byte(workload.TraceMagic)) {
		var buf bytes.Buffer
		_, err = workload.ImportCSV(bytes.NewReader(data), &buf)
		data = buf.Bytes()
	}
	if err == nil {
		tr, err = workload.OpenTrace(bytes.NewReader(data))
	}
	if err != nil {
		return nil, 0, 0, err
	}
	var rec workload.TraceRecord
	for err = tr.Next(&rec); err == nil; err = tr.Next(&rec) {
		if rec.Arrival <= horizon {
			due++
		}
		clamped = min(horizon, rec.Arrival)
	}
	if err != io.EOF {
		return nil, 0, 0, err
	}
	if tr.Records() == 0 {
		return nil, 0, 0, fmt.Errorf("%s: empty trace", path)
	}
	tr, err = workload.OpenTrace(bytes.NewReader(data))
	return tr, clamped, due, err
}
