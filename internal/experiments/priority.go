package experiments

import (
	"bytes"
	"fmt"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/pipeline"
	"feasregion/internal/priority"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// PriorityConfig parameterizes the priority-assignment comparison: the
// per-task OPA admitter vs the default deadline-monotonic global region
// vs a random order paying the worst-case α penalty, on the standard
// full-span suite, a mixed-span flow workload, and a recorded
// mixed-span trace replayed through the pipeline.
type PriorityConfig struct {
	// Loads are the offered bottleneck-stage loads swept per workload.
	Loads []float64
	// Stages is the pipeline length for every workload.
	Stages int
	// Resolution is the full-span suite's deadline resolution.
	Resolution float64
	// Arrivals sizes the mixed-span and trace-replay streams.
	Arrivals int
	// Scale sizes the full-span suite simulations.
	Scale Scale
	// Seed drives every stream; equal seeds reproduce all decisions.
	Seed int64
}

// DefaultPriority returns the publication sweep: three load levels on
// each of the three workloads.
func DefaultPriority() PriorityConfig {
	return PriorityConfig{
		Loads:      []float64{0.8, 1.2, 2.0},
		Stages:     3,
		Resolution: 20,
		Arrivals:   4000,
		Scale:      Full,
		Seed:       10,
	}
}

// PriorityOutcome is one (workload, load, mode) cell of the comparison.
type PriorityOutcome struct {
	Workload string
	Load     float64
	Mode     string
	Offered  uint64
	Admitted uint64
	Missed   uint64
}

// Ratio is the admitted-task ratio.
func (o PriorityOutcome) Ratio() float64 {
	if o.Offered == 0 {
		return 0
	}
	return float64(o.Admitted) / float64(o.Offered)
}

// priorityModes enumerates the three contenders. alpha is the α the
// random order must pay for the workload's deadline spread (Eq. 12);
// OPA and DM earn α = 1 by construction.
func priorityModes(stages int, alpha float64, seed int64) []struct {
	name string
	opts func() pipeline.Options
} {
	return []struct {
		name string
		opts func() pipeline.Options
	}{
		{"opa", func() pipeline.Options {
			return pipeline.Options{Stages: stages, Admitter: priority.NewAdmitter(stages, priority.ModeOPA, nil, nil)}
		}},
		{"dm", func() pipeline.Options {
			return pipeline.Options{Stages: stages}
		}},
		{"random", func() pipeline.Options {
			r := core.NewRegion(stages).WithAlpha(alpha)
			return pipeline.Options{
				Stages:      stages,
				Policy:      task.Random{},
				Region:      &r,
				PriorityRNG: dist.NewRNG(seed),
			}
		}},
	}
}

// runPriorityCell drives one arrival stream into one pipeline
// configuration and reports the outcome. emit must call offer for every
// arrival it schedules on the simulator.
func runPriorityCell(opts pipeline.Options, emit func(sim *des.Simulator, offer func(*task.Task))) (uint64, uint64, uint64) {
	sim := des.New()
	p := pipeline.New(sim, opts)
	sim.At(0, func() { p.BeginMeasurement() })
	emit(sim, func(tk *task.Task) { p.Offer(tk) })
	sim.Run()
	m := p.Snapshot()
	return m.Offered, m.EnteredService, m.Missed
}

// mixedSpanRecord is one arrival of the two-class mixed-span stream.
type mixedSpanRecord struct {
	at, dl  float64
	class   int // 0 interactive, 1 batch
	demands []float64
}

// mixedSpanRecords generates the seeded two-class mixed-span stream: an
// interactive class occupying only stage 0 under a tight deadline and a
// batch class occupying stages 1..N−1 under a loose one. Partial stage
// spans with heterogeneous deadlines are precisely where the per-task
// test widens past the global region (THEORY.md §9); on full-span
// chains the two coincide. load is the bottleneck-stage offered load
// (stages 1..N−1, carried by the batch class).
func mixedSpanRecords(stages, n int, load float64, seed int64) []mixedSpanRecord {
	const (
		interDemand = 0.25 // stage-0 mean demand of the interactive class
		batchDemand = 0.6  // per-stage mean demand of the batch class
	)
	rate := load / (0.5 * batchDemand)
	g := dist.NewRNG(seed)
	now := 0.0
	recs := make([]mixedSpanRecord, 0, n)
	for i := 0; i < n; i++ {
		now += g.ExpFloat64() / rate
		demands := make([]float64, stages)
		var dl float64
		class := 0
		if g.Float64() < 0.5 {
			demands[0] = interDemand * g.ExpFloat64()
			dl = 0.8 + 0.4*g.Float64()
		} else {
			class = 1
			for j := 1; j < stages; j++ {
				demands[j] = batchDemand * g.ExpFloat64()
			}
			dl = 8 * (0.75 + 0.5*g.Float64())
		}
		recs = append(recs, mixedSpanRecord{at: now, dl: dl, class: class, demands: demands})
	}
	return recs
}

// mixedSpanStream schedules the mixed-span records as live arrivals.
func mixedSpanStream(stages, n int, load float64, seed int64) func(*des.Simulator, func(*task.Task)) {
	return func(sim *des.Simulator, offer func(*task.Task)) {
		for i, r := range mixedSpanRecords(stages, n, load, seed) {
			tk := task.Chain(task.ID(i+1), r.at, r.dl, r.demands...)
			sim.At(des.Time(r.at), func() { offer(tk) })
		}
	}
}

// recordMixedSpanTrace authors the mixed-span stream as a binary trace
// (PR 9 format) in memory, so the replay leg exercises the same decision
// comparison through TraceReader → Replayer → Pipeline.
func recordMixedSpanTrace(stages, n int, load float64, seed int64) ([]byte, error) {
	var buf bytes.Buffer
	tw, err := workload.NewTraceWriter(&buf, stages, []string{"interactive", "batch"})
	if err != nil {
		return nil, err
	}
	for _, r := range mixedSpanRecords(stages, n, load, seed) {
		if err := tw.Write(r.at, r.dl, r.class, r.demands); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// PriorityAdmission runs the three-way comparison and returns the raw
// outcomes, one per (workload, load, mode).
func PriorityAdmission(cfg PriorityConfig) ([]PriorityOutcome, error) {
	var out []PriorityOutcome

	// Full-span suite: deadlines uniform in mean·[0.5, 1.5], so the
	// random order pays α = Dleast/Dmost = 1/3. For full-span chains the
	// per-task OPA test collapses to the global inequality, so this leg
	// checks the refinement never LOSES admissions.
	for _, load := range cfg.Loads {
		spec := paperSpec(cfg.Stages, load, cfg.Resolution)
		for _, m := range priorityModes(cfg.Stages, 1.0/3, cfg.Seed) {
			offered, admitted, missed := runPriorityCell(m.opts(), func(sim *des.Simulator, offer func(*task.Task)) {
				src := workload.NewSource(sim, spec, cfg.Seed, cfg.Scale.Horizon, offer)
				src.Start()
			})
			out = append(out, PriorityOutcome{Workload: "suite", Load: load, Mode: m.name, Offered: offered, Admitted: admitted, Missed: missed})
		}
	}

	// Mixed-span flows: interactive deadlines bottom at 0.8, batch top
	// at 10, so the random order pays α = 0.08 — while OPA's per-task
	// test strictly widens past even the α = 1 global region.
	for _, load := range cfg.Loads {
		for _, m := range priorityModes(cfg.Stages, 0.8/10, cfg.Seed+1) {
			offered, admitted, missed := runPriorityCell(m.opts(), mixedSpanStream(cfg.Stages, cfg.Arrivals, load, cfg.Seed+2))
			out = append(out, PriorityOutcome{Workload: "mixed", Load: load, Mode: m.name, Offered: offered, Admitted: admitted, Missed: missed})
		}
	}

	// Trace replay: the mixed-span stream recorded to the PR 9 binary
	// format and replayed through each pipeline.
	for _, load := range cfg.Loads {
		trace, err := recordMixedSpanTrace(cfg.Stages, cfg.Arrivals, load, cfg.Seed+3)
		if err != nil {
			return nil, fmt.Errorf("recording mixed-span trace: %w", err)
		}
		for _, m := range priorityModes(cfg.Stages, 0.8/10, cfg.Seed+4) {
			var rerr error
			offered, admitted, missed := runPriorityCell(m.opts(), func(sim *des.Simulator, offer func(*task.Task)) {
				tr, err := workload.OpenTrace(bytes.NewReader(trace))
				if err != nil {
					rerr = err
					return
				}
				rp, err := workload.NewReplayer(sim, tr, workload.ReplayOptions{}, offer)
				if err != nil {
					rerr = err
					return
				}
				if err := rp.Start(); err != nil {
					rerr = err
				}
			})
			if rerr != nil {
				return nil, fmt.Errorf("replaying mixed-span trace: %w", rerr)
			}
			out = append(out, PriorityOutcome{Workload: "replay", Load: load, Mode: m.name, Offered: offered, Admitted: admitted, Missed: missed})
		}
	}
	return out, nil
}

// PriorityAdmissionTable renders the comparison as the experiment table.
func PriorityAdmissionTable(outcomes []PriorityOutcome) *stats.Table {
	t := &stats.Table{
		Title:  "Extension: priority assignment — admitted-task ratio, per-task OPA vs DM global region vs random order (α-penalized)",
		Header: []string{"workload", "load", "mode", "offered", "admitted", "ratio", "missed"},
	}
	for _, o := range outcomes {
		t.AddRow(
			o.Workload,
			fmt.Sprintf("%.0f%%", o.Load*100),
			o.Mode,
			fmt.Sprintf("%d", o.Offered),
			fmt.Sprintf("%d", o.Admitted),
			fmt.Sprintf("%.3f", o.Ratio()),
			fmt.Sprintf("%d", o.Missed),
		)
	}
	return t
}

// PriorityTightness is the sharp-threshold study: for the balanced
// N-stage pipeline, Eq. 15 admits per-stage synthetic utilization up to
// U*(N, α) = f⁻¹(α/N). Gopalakrishnan's sharp-threshold result gives
// the yardstick at N = 1: utilization thresholds for fixed-priority
// aperiodic admission concentrate at a sharp constant, here
// f⁻¹(1) = 2−√2 ≈ 0.586. The table sweeps N and α and reports the
// per-stage gap Δ = U*(N, 1) − U*(N, α): the admitted load a non-DM
// order forfeits, and exactly what re-running the assignment to restore
// DM-compatibility (or PR 5's adaptive α, which re-measures the live
// deadline spread) can safely reclaim — the OPA admitter makes the
// reclaim automatic by keeping its frozen order DM-compatible (α = 1).
func PriorityTightness() *stats.Table {
	t := &stats.Table{
		Title:  "Extension: balanced region thresholds U*(N, α) = f⁻¹(α/N) vs the N=1 sharp threshold 2−√2 — the per-stage gap adaptive α reclaims",
		Header: []string{"stages", "alpha", "U* per stage", "U*(α=1)", "reclaimable Δ", "of sharp 0.586"},
	}
	sharp := core.UniprocessorBound
	for _, n := range []int{1, 2, 4, 8} {
		ustarDM := core.NewRegion(n).BalancedStageBound()
		for _, alpha := range []float64{0.25, 0.5, 0.75, 1.0} {
			ustar := core.NewRegion(n).WithAlpha(alpha).BalancedStageBound()
			delta := ustarDM - ustar
			t.AddRow(
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.2f", alpha),
				fmt.Sprintf("%.4f", ustar),
				fmt.Sprintf("%.4f", ustarDM),
				fmt.Sprintf("%.4f", delta),
				fmt.Sprintf("%.1f%%", 100*delta/sharp),
			)
		}
	}
	return t
}
