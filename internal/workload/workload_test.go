package workload

import (
	"math"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

func TestArrivalRateBalanced(t *testing.T) {
	spec := PipelineSpec{Stages: 2, Load: 1.2, MeanDemand: 0.5, Resolution: 100}
	if got := spec.ArrivalRate(); math.Abs(got-2.4) > 1e-12 {
		t.Fatalf("ArrivalRate = %v, want 2.4", got)
	}
}

func TestArrivalRateImbalanced(t *testing.T) {
	// Bottleneck mean demand = 1.5 -> rate = load / 1.5.
	spec := PipelineSpec{
		Stages: 2, Load: 0.9, MeanDemand: 1, Resolution: 100,
		StageScale: []float64{1.5, 0.5},
	}
	if got := spec.ArrivalRate(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("ArrivalRate = %v, want 0.6", got)
	}
}

func TestMeanDeadlineFollowsResolution(t *testing.T) {
	spec := PipelineSpec{Stages: 3, Load: 1, MeanDemand: 2, Resolution: 50}
	// Total mean computation = 6, so mean deadline = 300.
	if got := spec.MeanDeadline(); got != 300 {
		t.Fatalf("MeanDeadline = %v, want 300", got)
	}
}

func TestSourceGeneratesExpectedLoad(t *testing.T) {
	spec := PipelineSpec{Stages: 2, Load: 1.0, MeanDemand: 1, Resolution: 100}
	sim := des.New()
	var count int
	var totalDemand [2]float64
	var deadlines []float64
	src := NewSource(sim, spec, 7, 10_000, func(tk *task.Task) {
		count++
		totalDemand[0] += tk.StageDemand(0)
		totalDemand[1] += tk.StageDemand(1)
		deadlines = append(deadlines, tk.Deadline)
	})
	src.Start()
	sim.Run()
	// λ = 1, horizon 10k -> ≈10k arrivals.
	if count < 9500 || count > 10500 {
		t.Fatalf("generated %d arrivals, want ≈10000", count)
	}
	if src.Generated() != uint64(count) {
		t.Fatalf("Generated() = %d, want %d", src.Generated(), count)
	}
	for j := 0; j < 2; j++ {
		mean := totalDemand[j] / float64(count)
		if math.Abs(mean-1) > 0.05 {
			t.Fatalf("stage %d mean demand %v, want ≈1", j, mean)
		}
	}
	// Deadlines uniform in 200·[0.5, 1.5].
	var dmin, dmax, dsum float64 = math.Inf(1), 0, 0
	for _, d := range deadlines {
		dmin = math.Min(dmin, d)
		dmax = math.Max(dmax, d)
		dsum += d
	}
	if dmin < 100 || dmax > 300 {
		t.Fatalf("deadline range [%v, %v], want within [100, 300]", dmin, dmax)
	}
	if mean := dsum / float64(count); math.Abs(mean-200) > 5 {
		t.Fatalf("mean deadline %v, want ≈200", mean)
	}
}

func TestSourceRespectsHorizon(t *testing.T) {
	spec := PipelineSpec{Stages: 1, Load: 5, MeanDemand: 1, Resolution: 10}
	sim := des.New()
	last := 0.0
	src := NewSource(sim, spec, 7, 100, func(tk *task.Task) { last = tk.Arrival })
	src.Start()
	sim.Run()
	if last > 100 {
		t.Fatalf("arrival at %v past horizon 100", last)
	}
}

func TestSourceDeterminism(t *testing.T) {
	spec := PipelineSpec{Stages: 2, Load: 1, MeanDemand: 1, Resolution: 50}
	run := func() []float64 {
		sim := des.New()
		var sig []float64
		src := NewSource(sim, spec, 42, 200, func(tk *task.Task) {
			sig = append(sig, tk.Arrival, tk.Deadline, tk.StageDemand(0), tk.StageDemand(1))
		})
		src.Start()
		sim.Run()
		return sig
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay diverged in count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestStageMeansWithScales(t *testing.T) {
	spec := PipelineSpec{
		Stages: 2, Load: 1, MeanDemand: 2, Resolution: 10,
		StageScale: ImbalanceScales(3),
	}
	means := spec.StageMeans()
	if math.Abs(means[0]/means[1]-3) > 1e-12 {
		t.Fatalf("mean ratio %v, want 3", means[0]/means[1])
	}
	if math.Abs(means[0]+means[1]-4) > 1e-12 {
		t.Fatalf("total mean %v, want constant 4", means[0]+means[1])
	}
}

func TestImbalanceScalesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ImbalanceScales(-1)
}

func TestPeriodicStreamSchedule(t *testing.T) {
	sim := des.New()
	rng := dist.NewRNG(1)
	var arrivals []float64
	var id task.ID
	ps := PeriodicStream{Name: "tick", Period: 10, Phase: 3, Deadline: 5, Demands: []float64{1}}
	ps.Schedule(sim, rng, 45, &id, func(tk *task.Task) {
		arrivals = append(arrivals, tk.Arrival)
		if tk.Class != "tick" || tk.Deadline != 5 {
			t.Errorf("bad instance %+v", tk)
		}
	})
	sim.Run()
	want := []float64{3, 13, 23, 33, 43}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals %v, want %v", arrivals, want)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals %v, want %v", arrivals, want)
		}
	}
	if id != 5 {
		t.Fatalf("next ID %d, want 5", id)
	}
}

func TestPeriodicStreamJitterBounds(t *testing.T) {
	sim := des.New()
	rng := dist.NewRNG(1)
	var id task.ID
	ps := PeriodicStream{Name: "j", Period: 10, Jitter: 4, Deadline: 5, Demands: []float64{1}}
	k := 0
	ps.Schedule(sim, rng, 200, &id, func(tk *task.Task) {
		nominal := float64(k) * 10
		if tk.Arrival < nominal || tk.Arrival > nominal+4 {
			t.Errorf("release %d at %v outside [%v, %v]", k, tk.Arrival, nominal, nominal+4)
		}
		k++
	})
	sim.Run()
	if k == 0 {
		t.Fatal("no releases")
	}
}

func TestPeriodicStreamHelpers(t *testing.T) {
	ps := PeriodicStream{Period: 2, Deadline: 4, Demands: []float64{1, 2}}
	u := ps.Utilization()
	if u[0] != 0.25 || u[1] != 0.5 {
		t.Fatalf("utilization %v", u)
	}
	if ps.TotalDemand() != 3 {
		t.Fatalf("total demand %v", ps.TotalDemand())
	}
}

func TestHeavyTailedSourcePreservesMean(t *testing.T) {
	spec := PipelineSpec{Stages: 1, Load: 1, MeanDemand: 2, Resolution: 100}
	sim := des.New()
	var sum float64
	var n int
	src := HeavyTailedSource(sim, spec, 1.5, 3, 20_000, func(tk *task.Task) {
		sum += tk.StageDemand(0)
		n++
	})
	src.Start()
	sim.Run()
	if n == 0 {
		t.Fatal("no arrivals")
	}
	if mean := sum / float64(n); math.Abs(mean-2)/2 > 0.1 {
		t.Fatalf("heavy-tailed mean demand %v, want ≈2", mean)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []PipelineSpec{
		{Stages: 0, Load: 1, MeanDemand: 1, Resolution: 1},
		{Stages: 1, Load: 0, MeanDemand: 1, Resolution: 1},
		{Stages: 1, Load: 1, MeanDemand: 0, Resolution: 1},
		{Stages: 1, Load: 1, MeanDemand: 1, Resolution: 0},
		{Stages: 2, Load: 1, MeanDemand: 1, Resolution: 1, StageScale: []float64{1}},
	}
	for i, spec := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %d: expected panic", i)
				}
			}()
			spec.ArrivalRate()
		}()
	}
}

func TestTSCEReservedUtilization(t *testing.T) {
	c := NewTSCE()
	res := c.ReservedUtilization()
	want := []float64{0.40, 0.25, 0.10}
	for j := range want {
		if math.Abs(res[j]-want[j]) > 1e-9 {
			t.Fatalf("reserved[%d] = %v, want %v (paper §5)", j, res[j], want[j])
		}
	}
}

func TestTSCEStreamsMatchTable1(t *testing.T) {
	c := NewTSCE()
	if c.WeaponTargeting.Period != 0.05 || c.WeaponTargeting.Deadline != 0.05 {
		t.Fatal("Weapon Targeting must run at P=D=50ms")
	}
	if c.WeaponDetection.Deadline != 0.5 {
		t.Fatal("Weapon Detection deadline must be 500ms")
	}
	if c.TrackUpdateDemand != 0.001 || c.TrackUpdateDeadline != 1 {
		t.Fatal("track updates are 1ms at D=1s")
	}
	if c.AdmissionHold != 0.2 {
		t.Fatal("admission hold must be 200ms")
	}
}

func TestTSCEScheduleTracking(t *testing.T) {
	c := NewTSCE()
	sim := des.New()
	rng := dist.NewRNG(5)
	var id task.ID
	perClass := map[string]int{}
	c.ScheduleTracking(sim, rng, 20, 3, &id, func(tk *task.Task) {
		perClass[tk.Class]++
		if tk.Class == "track-update" && tk.StageDemand(0) != 0.001 {
			t.Errorf("track update demand %v", tk.StageDemand(0))
		}
	})
	sim.Run()
	// 3s horizon: distribution at 0,1,2,3 (4 releases); each track has a
	// random phase in [0,1) so 3 or 4 releases each.
	if perClass["track-distribution"] != 4 {
		t.Fatalf("distribution releases %d, want 4", perClass["track-distribution"])
	}
	if perClass["track-update"] < 3*20 || perClass["track-update"] > 4*20 {
		t.Fatalf("track updates %d, want 60..80", perClass["track-update"])
	}
}

func TestTSCEScheduleReserved(t *testing.T) {
	c := NewTSCE()
	sim := des.New()
	rng := dist.NewRNG(5)
	var id task.ID
	count := map[string]int{}
	c.ScheduleReserved(sim, rng, 1.0, &id, func(tk *task.Task) { count[tk.Class]++ })
	sim.Run()
	// Horizon 1s: WD at 0, 0.5, 1.0 -> 3; WT every 50ms -> 21; UAV -> 3.
	if count["weapon-detection"] != 3 || count["uav-video"] != 3 {
		t.Fatalf("counts %v", count)
	}
	if count["weapon-targeting"] != 21 {
		t.Fatalf("weapon targeting releases %d, want 21", count["weapon-targeting"])
	}
}

func TestSourceSetFirstID(t *testing.T) {
	spec := PipelineSpec{Stages: 1, Load: 1, MeanDemand: 1, Resolution: 10}
	sim := des.New()
	var first task.ID = -1
	src := NewSource(sim, spec, 1, 50, func(tk *task.Task) {
		if first == -1 {
			first = tk.ID
		}
	})
	src.SetFirstID(5000)
	src.Start()
	sim.Run()
	if first != 5000 {
		t.Fatalf("first ID %d, want 5000", first)
	}
}

func TestSensorFlowShape(t *testing.T) {
	spec := DefaultSensorFlow()
	spec.ExtraBranches = 1
	g := dist.NewRNG(9)
	flow := spec.Build(g)
	if err := flow.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := 5 + spec.ExtraBranches; len(flow.Nodes) != want {
		t.Fatalf("nodes %d, want %d", len(flow.Nodes), want)
	}
	// Structure: one source (ingest), one sink (display).
	in := flow.Predecessors()
	sources, sinks := 0, 0
	for i := range flow.Nodes {
		if in[i] == 0 {
			sources++
		}
		if len(flow.Edges[i]) == 0 {
			sinks++
		}
	}
	if sources != 1 || sinks != 1 {
		t.Fatalf("sources %d sinks %d, want 1/1", sources, sinks)
	}
	// End-to-end delay is ingest + max(branches) + fuse + display: with
	// node weights 1 the longest path has 4 nodes.
	if got := flow.LongestPath(func(int) float64 { return 1 }); got != 4 {
		t.Fatalf("longest path %v nodes, want 4", got)
	}
}

func TestSensorFlowDemandMeans(t *testing.T) {
	spec := DefaultSensorFlow()
	g := dist.NewRNG(10)
	total := 0.0
	const n = 5000
	for i := 0; i < n; i++ {
		flow := spec.Build(g)
		for _, node := range flow.Nodes {
			total += node.Subtask.Demand
		}
	}
	wantMean := 0.4 + 0.8 + 0.8 + 0.3 + 0.5
	if got := total / n; math.Abs(got-wantMean) > 0.1 {
		t.Fatalf("mean total demand %v, want ≈%v", got, wantMean)
	}
}

func TestMixedSourceRatesAndLabels(t *testing.T) {
	sim := des.New()
	classes := []ClassSpec{
		{Name: "fast", Rate: 10, Demands: []dist.Distribution{dist.NewExponential(0.01)},
			Deadline: dist.NewDeterministic(1), Importance: 1},
		{Name: "slow", Rate: 1, Demands: []dist.Distribution{dist.NewExponential(0.5)},
			Deadline: dist.NewUniform(5, 10), Importance: 5},
	}
	got := map[string]int{}
	ids := map[task.ID]bool{}
	ms := NewMixedSource(sim, 1, classes, 7, 100, 1000, func(tk *task.Task) {
		got[tk.Class]++
		if ids[tk.ID] {
			t.Errorf("duplicate task ID %d", tk.ID)
		}
		ids[tk.ID] = true
		if tk.ID < 100 {
			t.Errorf("ID %d below firstID", tk.ID)
		}
		switch tk.Class {
		case "fast":
			if tk.Deadline != 1 || tk.Importance != 1 {
				t.Errorf("fast instance %+v", tk)
			}
		case "slow":
			if tk.Deadline < 5 || tk.Deadline > 10 || tk.Importance != 5 {
				t.Errorf("slow instance %+v", tk)
			}
		}
	})
	sim.Run()
	if got["fast"] < 9000 || got["fast"] > 11000 {
		t.Fatalf("fast arrivals %d, want ≈10000", got["fast"])
	}
	if got["slow"] < 800 || got["slow"] > 1200 {
		t.Fatalf("slow arrivals %d, want ≈1000", got["slow"])
	}
	counts := ms.Generated()
	if counts["fast"] != uint64(got["fast"]) || counts["slow"] != uint64(got["slow"]) {
		t.Fatalf("Generated() %v vs observed %v", counts, got)
	}
}

func TestMixedSourceValidation(t *testing.T) {
	sim := des.New()
	good := ClassSpec{Name: "x", Rate: 1,
		Demands:  []dist.Distribution{dist.NewExponential(1)},
		Deadline: dist.NewDeterministic(1)}
	for name, fn := range map[string]func(){
		"zero stages": func() { NewMixedSource(sim, 0, []ClassSpec{good}, 1, 0, 10, func(*task.Task) {}) },
		"no classes":  func() { NewMixedSource(sim, 1, nil, 1, 0, 10, func(*task.Task) {}) },
		"nil sink":    func() { NewMixedSource(sim, 1, []ClassSpec{good}, 1, 0, 10, nil) },
		"zero rate": func() {
			bad := good
			bad.Rate = 0
			NewMixedSource(sim, 1, []ClassSpec{bad}, 1, 0, 10, func(*task.Task) {})
		},
		"wrong demand count": func() {
			bad := good
			bad.Demands = nil
			NewMixedSource(sim, 1, []ClassSpec{bad}, 1, 0, 10, func(*task.Task) {})
		},
		"nil deadline": func() {
			bad := good
			bad.Deadline = nil
			NewMixedSource(sim, 1, []ClassSpec{bad}, 1, 0, 10, func(*task.Task) {})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMixedSourceDrivesPipelineClasses(t *testing.T) {
	// End-to-end: mixed classes flow into per-class metrics.
	sim := des.New()
	classes := []ClassSpec{
		{Name: "a", Rate: 2, Demands: []dist.Distribution{dist.NewExponential(0.05)},
			Deadline: dist.NewDeterministic(2)},
		{Name: "b", Rate: 1, Demands: []dist.Distribution{dist.NewExponential(0.1)},
			Deadline: dist.NewDeterministic(4)},
	}
	count := 0
	NewMixedSource(sim, 1, classes, 3, 0, 200, func(tk *task.Task) { count++ })
	sim.Run()
	if count == 0 {
		t.Fatal("no arrivals")
	}
}
