package pipeline

import (
	"bytes"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// replayTestTrace records a small scenario into a binary trace: the
// full engine path (scenario → trace → replayer → pipeline.Offer).
func replayTestTrace(t *testing.T) []byte {
	t.Helper()
	sc := &workload.Scenario{
		Stages:     2,
		MeanDemand: 0.5,
		Curve: []workload.RatePoint{
			{At: 0, Rate: 0.4},
			{At: 500, Rate: 0.9},
			{At: 1000, Rate: 0.4},
		},
		Cohorts: []workload.Cohort{
			{Name: "fast", Share: 0.5, DemandScale: 0.8, Resolution: 30},
			{Name: "slow", Share: 0.5, DemandScale: 1.2, Resolution: 80},
		},
		Horizon: 1500,
		Seed:    21,
	}
	var buf bytes.Buffer
	if _, err := sc.RecordTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayIntoPipeline drives one trace pass through a full admission
// pipeline and returns the end-of-run metrics.
func replayIntoPipeline(t *testing.T, data []byte, opts workload.ReplayOptions) Metrics {
	t.Helper()
	tr, err := workload.OpenTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	p := New(sim, Options{Stages: tr.Stages()})
	p.BeginMeasurement()
	// The replayer offers one reused task; the pipeline copies what it
	// keeps in flight.
	rp, err := workload.NewReplayer(sim, tr, opts, func(tk *task.Task) { p.Offer(tk) })
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if rp.Err() != nil {
		t.Fatal(rp.Err())
	}
	return p.Snapshot()
}

// TestReplayDrivesPipeline wires the trace engine into the pipeline
// driver: a recorded scenario replays through full admission, completes
// work, and — the paper's guarantee — misses no admitted deadline.
func TestReplayDrivesPipeline(t *testing.T) {
	data := replayTestTrace(t)
	m := replayIntoPipeline(t, data, workload.ReplayOptions{})
	if m.Offered == 0 || m.Completed == 0 {
		t.Fatalf("replay drove no work: %+v", m)
	}
	if m.Missed != 0 {
		t.Fatalf("%d admitted tasks missed deadlines", m.Missed)
	}

	// Bit-identical metrics across passes: same trace, same decisions.
	m2 := replayIntoPipeline(t, data, workload.ReplayOptions{})
	if m.Offered != m2.Offered || m.Completed != m2.Completed ||
		m.EnteredService != m2.EnteredService ||
		m.ResponseTimes.Mean() != m2.ResponseTimes.Mean() {
		t.Fatalf("replay passes diverged: %+v vs %+v", m, m2)
	}
}

// TestReplayRateMultiplierRaisesPressure turns one recorded trace into
// a stress sweep: multiplying the arrival rate must increase offered
// load and admission pressure without touching per-task requirements.
func TestReplayRateMultiplierRaisesPressure(t *testing.T) {
	data := replayTestTrace(t)
	base := replayIntoPipeline(t, data, workload.ReplayOptions{})
	dense := replayIntoPipeline(t, data, workload.ReplayOptions{RateMultiplier: 6})
	if base.Offered != dense.Offered {
		t.Fatalf("rate multiplier changed the record count: %d vs %d", base.Offered, dense.Offered)
	}
	if dense.AcceptRatio >= base.AcceptRatio {
		t.Fatalf("6× rate should lower accept ratio: base %.3f, dense %.3f",
			base.AcceptRatio, dense.AcceptRatio)
	}
	if dense.Missed != 0 {
		t.Fatalf("admitted tasks missed under compression: %d", dense.Missed)
	}
}
