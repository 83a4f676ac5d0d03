package experiments

import (
	"bytes"
	"hash/fnv"
	"math"
	"testing"

	"feasregion/internal/cluster"
	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/metrics"
	"feasregion/internal/pipeline"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// This file pins the admission decisions of the three simulated stacks
// the end-to-end benchmark replays (region admission alone, the full
// pipeline with metrics, and a four-replica cluster) on its scenario
// trace at reduced size. A change to the event core, the stage
// schedulers, the task table or the metrics that alters any decision,
// any event order or any exported metric fails here. The pipeline's
// metrics page is pinned twice: mid-run, with stages busy and queues
// non-empty, and once the run has drained.

// digestRecords is the reduced trace size: large enough that stages
// preempt, idle-reset and run busy periods hundreds deep.
const digestRecords = 30_000

// digestMidScrape is the simulated instant of the mid-run metrics
// scrape: inside the flash crowd at the pipeline's 12× rate, when every
// stage is busy with a backlog.
const digestMidScrape = 250.0

// digestScenario is the benchmark's scenario trace: a diurnal
// 0.3→0.7→0.3 curve over one day with a 1.8× flash crowd, then a steady
// 0.3 tail, over interactive, batch and control cohorts.
func digestScenario(seed int64) *workload.Scenario {
	cfg := ReplayConfig{Arrivals: digestRecords, Stages: 3, Seed: seed}
	sc := replayScenario(cfg)
	sc.Horizon = max(1.05*float64(digestRecords)/0.3, 4e4)
	return sc
}

// digestStack is one simulated stack under test.
type digestStack struct {
	offer func(*task.Task) bool
	text  func() []byte // renders the metrics page, nil for none
}

// digestReplay replays the scenario through the stack built by mk at
// the given rate multiplier and returns the FNV-1a digest of the
// (id, decision, arrival) stream plus the final clock, the stack's
// metrics text scraped at simulated instant mid (mid > 0 only), and
// its final metrics text.
func digestReplay(t *testing.T, trace []byte, rate, mid float64, mk func(*des.Simulator) digestStack) (h uint64, midText, text []byte) {
	t.Helper()
	sim := des.New()
	st := mk(sim)
	r, err := workload.OpenTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	h = fnvOffset
	rp, err := workload.NewReplayer(sim, r, workload.ReplayOptions{
		RateMultiplier: rate,
		Limit:          digestRecords,
	}, func(tk *task.Task) {
		d := uint64(0)
		if st.offer(tk) {
			d = 1
		}
		h = fnvFold(h, uint64(tk.ID)<<1|d)
		h = fnvFold(h, math.Float64bits(tk.Arrival))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Start(); err != nil {
		t.Fatal(err)
	}
	if mid > 0 && st.text != nil {
		sim.RunUntil(mid)
		midText = st.text()
	}
	sim.Run()
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	if rp.Replayed() != digestRecords {
		t.Fatalf("replayed %d of %d records", rp.Replayed(), digestRecords)
	}
	h = fnvFold(h, math.Float64bits(sim.Now()))
	if st.text != nil {
		text = st.text()
	}
	return h, midText, text
}

// pageHash is the FNV-1a hash of a metrics page.
func pageHash(page []byte) uint64 {
	ph := fnv.New64a()
	ph.Write(page)
	return ph.Sum64()
}

func TestSimStackDigests(t *testing.T) {
	type want struct{ admit, pipe, midPage, page, fleet uint64 }
	golden := map[int64]want{
		42: {0x1dd80b45a7b70c6a, 0xde8237bc13a8edc1, 0x909f97b82eb6bbb3, 0xab64e3c9f6690f80, 0xabe5e0129bdef7a3},
		7:  {0x6626efade8846a73, 0xc48328b951c8df7c, 0x49b8df9dee049489, 0x5ebc1b1ccdeebc3c, 0x0b1c7aa2fd07bd49},
	}
	for _, seed := range []int64{42, 7} {
		var trace bytes.Buffer
		if _, err := digestScenario(seed).RecordTrace(&trace); err != nil {
			t.Fatal(err)
		}
		admit, _, _ := digestReplay(t, trace.Bytes(), 6, 0, func(sim *des.Simulator) digestStack {
			ctl := core.NewController(sim, core.NewRegion(3), nil)
			return digestStack{offer: ctl.TryAdmit}
		})
		pipe, midPage, page := digestReplay(t, trace.Bytes(), 12, digestMidScrape, func(sim *des.Simulator) digestStack {
			reg := metrics.NewRegistry()
			p := pipeline.New(sim, pipeline.Options{Stages: 3, Metrics: reg})
			p.BeginMeasurement()
			return digestStack{offer: p.Offer, text: func() []byte {
				var b bytes.Buffer
				if err := reg.WritePrometheus(&b); err != nil {
					t.Fatal(err)
				}
				return b.Bytes()
			}}
		})
		fleet, _, _ := digestReplay(t, trace.Bytes(), 48, 0, func(sim *des.Simulator) digestStack {
			cp := pipeline.NewCluster(sim, pipeline.ClusterOptions{
				Stages:   3,
				Replicas: 4,
				Policy:   cluster.PowerOfTwo,
				Seed:     7,
				Scaler:   cluster.AutoscalerConfig{Min: 4, Max: 4},
			})
			cp.BeginMeasurement()
			return digestStack{offer: cp.Offer}
		})
		got := want{admit, pipe, pageHash(midPage), pageHash(page), fleet}
		if got != golden[seed] {
			t.Errorf("seed %d: digests admit %016x pipeline %016x mid page %016x page %016x fleet %016x, want %016x %016x %016x %016x %016x",
				seed, got.admit, got.pipe, got.midPage, got.page, got.fleet,
				golden[seed].admit, golden[seed].pipe, golden[seed].midPage, golden[seed].page, golden[seed].fleet)
		}

	}
}
