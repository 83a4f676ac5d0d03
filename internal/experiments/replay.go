package experiments

import (
	"fmt"
	"math"
	"os"
	"time"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// ReplayConfig parameterizes the trace-replay throughput experiment.
type ReplayConfig struct {
	// Arrivals is the number of trace records to generate and replay.
	Arrivals uint64
	// Stages is the pipeline length of the synthetic scenario.
	Stages int
	// Seed drives the scenario generator.
	Seed int64
	// TraceFile, when non-empty, replays an existing binary trace instead
	// of generating one (the generate phase is skipped).
	TraceFile string
	// TimeCompress and RateMultiplier are passed through to the replayer
	// (0 = 1, see workload.ReplayOptions).
	TimeCompress   float64
	RateMultiplier float64
	// KeepTrace leaves the generated trace file on disk and reports its
	// path instead of deleting it.
	KeepTrace bool
}

// DefaultReplay returns the acceptance-scale configuration: a ten
// million record trace driven through region admission twice.
func DefaultReplay() ReplayConfig {
	return ReplayConfig{Arrivals: 10_000_000, Stages: 3, Seed: 42}
}

// ReplayResult reports the generate and replay phases.
type ReplayResult struct {
	Records   uint64
	TraceFile string
	TraceMB   float64
	// GenSeconds is the wall time to synthesize and write the trace
	// (zero when replaying an existing file).
	GenSeconds float64
	// Runs holds the two replay passes.
	Runs [2]ReplayRun
	// Deterministic is true when both passes produced the same admission
	// decision stream (FNV-1a digests match) — the bit-reproducibility
	// check for the event core under tens of millions of events.
	Deterministic bool
}

// ReplayRun is one full pass of the trace through region admission.
type ReplayRun struct {
	Seconds   float64
	Replayed  uint64
	Admitted  uint64
	Events    uint64 // simulator events dispatched (arrivals + expiries)
	EventsSec float64
	Digest    uint64 // FNV-1a over the (task, decision) stream
}

// replayScenario builds a diurnal scenario sized to produce close to
// the requested number of arrivals.
func replayScenario(cfg ReplayConfig) *workload.Scenario {
	// The curve ramps 0.3→0.7→0.3 over one day, then clamps to its 0.3
	// tail for the rest of the horizon, so horizon ≈ n/0.3 with a 2%
	// margin keeps Arrivals a floor despite Poisson variance.
	const day = 1e4
	horizon := 1.02 * float64(cfg.Arrivals) / 0.3
	if horizon < 4*day {
		horizon = 4 * day
	}
	return &workload.Scenario{
		Stages:     cfg.Stages,
		MeanDemand: 1.0 / 3, // total demand 1·Stages/3 ≈ 1 for 3 stages
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
		Crowds: []workload.FlashCrowd{
			{Start: day / 4, Duration: day / 20, Multiplier: 1.8},
		},
		Horizon: horizon,
		Seed:    cfg.Seed,
	}
}

// The curve above repeats only its first day (the rate curve clamps to
// its last point); that is intentional — a steady 0.3 tail after one
// modulated day still exercises the diurnal ramp, the flash crowd, and
// a long homogeneous stretch, which is the fast path that dominates at
// ten million records.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// replayOnce streams the trace through a fresh simulator and region
// admission controller, digesting every decision.
func replayOnce(path string, cfg ReplayConfig) (ReplayRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return ReplayRun{}, err
	}
	defer f.Close()
	tr, err := workload.OpenTrace(f)
	if err != nil {
		return ReplayRun{}, err
	}

	sim := des.New()
	ctl := core.NewController(sim, core.NewRegion(tr.Stages()), nil)
	run := ReplayRun{Digest: fnvOffset}
	offer := func(t *task.Task) {
		admitted := ctl.TryAdmit(t)
		d := uint64(0)
		if admitted {
			d = 1
			run.Admitted++
		}
		run.Digest = fnvFold(run.Digest, uint64(t.ID)<<1|d)
		run.Digest = fnvFold(run.Digest, math.Float64bits(t.Arrival))
	}
	rp, err := workload.NewReplayer(sim, tr, workload.ReplayOptions{
		TimeCompress:   cfg.TimeCompress,
		RateMultiplier: cfg.RateMultiplier,
	}, offer)
	if err != nil {
		return ReplayRun{}, err
	}

	start := time.Now()
	if err := rp.Start(); err != nil {
		return ReplayRun{}, fmt.Errorf("starting replay: %w", err)
	}
	sim.Run()
	run.Seconds = time.Since(start).Seconds()
	if rp.Err() != nil {
		return ReplayRun{}, rp.Err()
	}
	run.Replayed = rp.Replayed()
	run.Events = sim.Steps()
	if run.Seconds > 0 {
		run.EventsSec = float64(run.Events) / run.Seconds
	}
	run.Digest = fnvFold(run.Digest, math.Float64bits(float64(sim.Now())))
	return run, nil
}

// Replay generates (or opens) a binary arrival trace and replays it
// twice through region admission on fresh simulators, reporting
// throughput and verifying that the two decision streams are
// bit-identical — the end-to-end determinism check for the event core
// at tens of millions of events.
func Replay(cfg ReplayConfig) (*ReplayResult, error) {
	res := &ReplayResult{}

	path := cfg.TraceFile
	if path == "" {
		f, err := os.CreateTemp("", "feasregion-replay-*.trace")
		if err != nil {
			return nil, err
		}
		path = f.Name()
		if !cfg.KeepTrace {
			defer os.Remove(path)
		}
		sc := replayScenario(cfg)
		start := time.Now()
		n, err := sc.RecordTrace(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("generating trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		res.GenSeconds = time.Since(start).Seconds()
		res.Records = n
	}
	res.TraceFile = path
	if fi, err := os.Stat(path); err == nil {
		res.TraceMB = float64(fi.Size()) / (1 << 20)
	}

	for i := range res.Runs {
		run, err := replayOnce(path, cfg)
		if err != nil {
			return nil, fmt.Errorf("replay pass %d: %w", i+1, err)
		}
		res.Runs[i] = run
	}
	if res.Records == 0 {
		res.Records = res.Runs[0].Replayed
	}
	res.Deterministic = res.Runs[0].Digest == res.Runs[1].Digest &&
		res.Runs[0].Admitted == res.Runs[1].Admitted &&
		res.Runs[0].Events == res.Runs[1].Events
	return res, nil
}

// Table renders the replay phases.
func (r *ReplayResult) Table() *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Trace replay: %d records (%.1f MB) through region admission, twice",
			r.Records, r.TraceMB),
		Header: []string{"phase", "records", "wall s", "events", "events/s", "admitted", "digest"},
	}
	if r.GenSeconds > 0 {
		t.AddRow("generate", fmt.Sprintf("%d", r.Records), fmt.Sprintf("%.2f", r.GenSeconds),
			"-", "-", "-", "-")
	}
	for i, run := range r.Runs {
		t.AddRow(fmt.Sprintf("replay %d", i+1),
			fmt.Sprintf("%d", run.Replayed),
			fmt.Sprintf("%.2f", run.Seconds),
			fmt.Sprintf("%d", run.Events),
			fmt.Sprintf("%.3g", run.EventsSec),
			fmt.Sprintf("%d", run.Admitted),
			fmt.Sprintf("%016x", run.Digest))
	}
	verdict := "IDENTICAL (bit-reproducible)"
	if !r.Deterministic {
		verdict = "MISMATCH"
	}
	t.AddRow("decision streams", "-", "-", "-", "-", "-", verdict)
	return t
}
