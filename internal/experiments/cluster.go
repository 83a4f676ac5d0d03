package experiments

import (
	"fmt"
	"math"
	"sort"

	"feasregion/internal/cluster"
	"feasregion/internal/des"
	"feasregion/internal/faults"
	"feasregion/internal/obs"
	"feasregion/internal/pipeline"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// ClusterConfig parameterizes the cluster routing and autoscaling
// demonstration.
//
// Part A (routing): a fixed fleet of Replicas identical pipelines, one
// of which (SlowReplica) runs SlowFactor× slow over a long window — a
// degraded node whose feasible region stays persistently fuller than
// its peers'. The three routing policies face the identical workload at
// each fleet load factor in Loads, each cell twice: with the
// per-replica stage-health loop open and closed. With the loop open,
// placement is the only defense, and headroom-aware routing strictly
// beats round-robin on deadline misses — round-robin keeps feeding the
// degraded replica tasks that then miss. Closing the loop (the obs
// monitor inflating the degraded replica's admission demands) collapses
// misses for every policy: the admission controller itself stops the
// bleeding, and routing quality shows up in admitted throughput
// instead.
//
// Part B (scaling): a Min=1 fleet under the admission-driven autoscaler
// faces a load step from BaseLoad to BaseLoad+StepLoad at StepAt; the
// scaler must grow the fleet within a few intervals and then hold it
// steady (no oscillation) for the rest of the run.
type ClusterConfig struct {
	Seeds      int
	Stages     int
	Replicas   int
	Horizon    float64
	Warmup     float64
	Loads      []float64 // fleet load factors (1.0 = fleet capacity)
	Resolution float64

	// SlowReplica runs SlowFactor× slow on every stage during
	// [SlowStart, SlowStart+SlowLen).
	SlowReplica int
	SlowStart   float64
	SlowLen     float64
	SlowFactor  float64

	// Monitor configures the closed-loop cells: the obs monitor watches
	// each replica's observed/declared service ratio and, through the
	// per-replica scaler wiring, inflates the degraded replica's
	// admission demands so its region refuses the load it can no longer
	// carry.
	Monitor obs.Config

	// Part B: the step experiment.
	ScaleHorizon   float64
	ScaleWarmup    float64
	BaseLoad       float64 // offered load before the step (single-pipeline units)
	StepLoad       float64 // additional load arriving from StepAt on
	StepAt         float64
	ScalerInterval float64
	Scaler         cluster.AutoscalerConfig

	Seed int64
}

// DefaultCluster returns the default configuration.
func DefaultCluster() ClusterConfig {
	return ClusterConfig{
		Seeds:       3,
		Stages:      3,
		Replicas:    3,
		Horizon:     600,
		Warmup:      80,
		Loads:       []float64{1.0, 1.5, 2.0},
		Resolution:  12,
		SlowReplica: 0,
		SlowStart:   100,
		SlowLen:     450,
		SlowFactor:  6,
		Monitor: obs.Config{
			Alpha:            0.3,
			MinSamples:       15,
			DegradeThreshold: 1.5,
			RecoverThreshold: 1.15,
			MaxScale:         8,
		},

		ScaleHorizon:   900,
		ScaleWarmup:    60,
		BaseLoad:       0.5,
		StepLoad:       2.0,
		StepAt:         300,
		ScalerInterval: 5,
		Scaler: cluster.AutoscalerConfig{
			Min: 1, Max: 5,
			UpHeadroomFrac: 0.2, UpRejectRate: 0.05, UpAfter: 2,
			DownHeadroomFrac: 0.85, DownAfter: 12, Cooldown: 4,
		},
		Seed: 17,
	}
}

// ClusterVariant aggregates one (policy, load, health-loop) cell
// across seeds.
type ClusterVariant struct {
	Policy cluster.Policy
	Load   float64
	// Health reports whether the per-replica stage-health loop was
	// closed for this cell.
	Health bool

	Offered   uint64
	Admitted  uint64
	Completed uint64
	Missed    uint64
	Rollbacks uint64
	// AdmitRatio is the mean fleet admitted/offered across seeds;
	// Balance is the mean coefficient of variation of per-replica
	// placement counts (0 = perfectly even).
	AdmitRatio float64
	Balance    float64
}

// ClusterScale is the Part B outcome for one seed.
type ClusterScale struct {
	Transitions []cluster.Transition
	FinalActive int
	// UpActions counts ScaleUp+Undrain; DownActions counts Drain.
	UpActions, DownActions int
	// LateTransitions counts scaler actions in the final third of the
	// run — the convergence criterion is zero.
	LateTransitions int
	Completed       uint64
	Missed          uint64
}

// ClusterResult is the full experiment outcome.
type ClusterResult struct {
	Cfg      ClusterConfig
	Variants []ClusterVariant
	Scale    ClusterScale
}

// clusterRun simulates one (policy, load, health, seed) routing cell
// and returns the fleet snapshot.
func clusterRun(cfg ClusterConfig, pol cluster.Policy, load float64, health bool, seed int64) pipeline.ClusterMetrics {
	sim := des.New()
	var mon *obs.Monitor
	if health {
		mcfg := cfg.Monitor
		mcfg.Stages = cfg.Stages
		mon = obs.NewMonitor(mcfg, nil)
	}
	cp := pipeline.NewCluster(sim, pipeline.ClusterOptions{
		Stages:   cfg.Stages,
		Replicas: cfg.Replicas,
		Policy:   pol,
		Seed:     uint64(seed),
		Scaler:   cluster.AutoscalerConfig{Min: cfg.Replicas, Max: cfg.Replicas},
		Health:   mon,
		Faults: func(replica int) *faults.Injector {
			if replica != cfg.SlowReplica {
				return nil
			}
			wins := make([]faults.SlowWindow, cfg.Stages)
			for j := range wins {
				wins[j] = faults.SlowWindow{Stage: j, Start: cfg.SlowStart, Duration: cfg.SlowLen, Factor: cfg.SlowFactor}
			}
			return faults.New(faults.Config{Stages: cfg.Stages, SlowWindows: wins}, seed)
		},
	})
	spec := paperSpec(cfg.Stages, load*float64(cfg.Replicas), cfg.Resolution)
	src := workload.NewSource(sim, spec, seed, cfg.Horizon, func(tk *task.Task) { cp.Offer(tk) })
	return measure(sim, cp, cfg.Warmup, cfg.Horizon, src.Start)
}

// clusterScaleRun simulates the Part B step for one seed.
func clusterScaleRun(cfg ClusterConfig, seed int64) ClusterScale {
	sim := des.New()
	cp := pipeline.NewCluster(sim, pipeline.ClusterOptions{
		Stages: cfg.Stages,
		Policy: cluster.PowerOfTwo,
		Seed:   uint64(seed),
		Scaler: cfg.Scaler,
	})
	base := paperSpec(cfg.Stages, cfg.BaseLoad, cfg.Resolution)
	step := paperSpec(cfg.Stages, cfg.StepLoad, cfg.Resolution)
	srcA := workload.NewSource(sim, base, seed, cfg.ScaleHorizon, func(tk *task.Task) { cp.Offer(tk) })
	srcB := workload.NewSource(sim, step, seed+1, cfg.ScaleHorizon, func(tk *task.Task) { cp.Offer(tk) })
	srcB.SetFirstID(1 << 32) // partition the ID space between the sources
	sim.At(cfg.StepAt, func() { srcB.Start() })
	cp.ScheduleScaler(cfg.ScalerInterval, cfg.ScaleHorizon)
	m := measure(sim, cp, cfg.ScaleWarmup, cfg.ScaleHorizon, srcA.Start)

	out := ClusterScale{
		Transitions: m.Transitions,
		FinalActive: cp.Cluster().ActiveCount(),
		Completed:   m.Completed,
		Missed:      m.Missed,
	}
	lateFrom := uint64(math.Ceil(2 * cfg.ScaleHorizon / (3 * cfg.ScalerInterval)))
	for _, tr := range m.Transitions {
		switch tr.Action {
		case cluster.ScaleUp, cluster.Undrain:
			out.UpActions++
		case cluster.Drain:
			out.DownActions++
		}
		if tr.Tick >= lateFrom && tr.Action != cluster.Remove {
			out.LateTransitions++
		}
	}
	return out
}

// Cluster runs both parts.
func Cluster(cfg ClusterConfig) ClusterResult {
	res := ClusterResult{Cfg: cfg}
	for _, load := range cfg.Loads {
		for _, health := range []bool{false, true} {
			for _, pol := range cluster.Policies {
				v := ClusterVariant{Policy: pol, Load: load, Health: health}
				var admits, balances []float64
				for s := 0; s < cfg.Seeds; s++ {
					seed := cfg.Seed + int64(s)*7919
					m := clusterRun(cfg, pol, load, health, seed)
					v.Offered += m.Offered
					v.Admitted += m.Admitted
					v.Completed += m.Completed
					v.Missed += m.Missed
					v.Rollbacks += m.Router.Rollbacks
					if m.Offered > 0 {
						admits = append(admits, float64(m.Admitted)/float64(m.Offered))
					}
					balances = append(balances, placementCV(m))
				}
				v.AdmitRatio = stats.Summarize(admits).Mean
				v.Balance = stats.Summarize(balances).Mean
				res.Variants = append(res.Variants, v)
			}
		}
	}
	res.Scale = clusterScaleRun(cfg, cfg.Seed)
	return res
}

// placementCV is the coefficient of variation of per-replica placement
// counts — the headroom-balance statistic (0 = perfectly even). The
// replicas accumulate in ID order so the float result is reproducible.
func placementCV(m pipeline.ClusterMetrics) float64 {
	ids := make([]int, 0, len(m.Replicas))
	for id := range m.Replicas {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var w stats.Welford
	for _, id := range ids {
		w.Add(float64(m.Replicas[id].Placed))
	}
	if w.Mean() == 0 {
		return 0
	}
	return w.StdDev() / w.Mean()
}

// Tables renders the routing comparison and the scaling timeline.
func (r ClusterResult) Tables() []*stats.Table {
	rt := &stats.Table{
		Title: fmt.Sprintf("Cluster: routing policies over %d replicas (replica %d runs x%.2g slower over [%.4g, %.4g), %d seeds)",
			r.Cfg.Replicas, r.Cfg.SlowReplica, r.Cfg.SlowFactor, r.Cfg.SlowStart, r.Cfg.SlowStart+r.Cfg.SlowLen, r.Cfg.Seeds),
		Header: []string{"load", "health loop", "policy", "offered", "admitted", "completed", "deadline misses", "rollbacks", "balance CV"},
	}
	for _, v := range r.Variants {
		loop := "open"
		if v.Health {
			loop = "closed"
		}
		rt.AddRow(
			fmt.Sprintf("%.2gx", v.Load),
			loop,
			v.Policy.String(),
			fmt.Sprintf("%d", v.Offered),
			fmt.Sprintf("%.1f%%", v.AdmitRatio*100),
			fmt.Sprintf("%d", v.Completed),
			fmt.Sprintf("%d", v.Missed),
			fmt.Sprintf("%d", v.Rollbacks),
			fmt.Sprintf("%.3f", v.Balance),
		)
	}
	st := &stats.Table{
		Title: fmt.Sprintf("Cluster: autoscaler step response (%.2g -> %.2g at t=%.4g, interval %.3g)",
			r.Cfg.BaseLoad, r.Cfg.BaseLoad+r.Cfg.StepLoad, r.Cfg.StepAt, r.Cfg.ScalerInterval),
		Header: []string{"tick", "t", "action", "replica", "active", "headroom frac", "reject rate"},
	}
	for _, tr := range r.Scale.Transitions {
		st.AddRow(
			fmt.Sprintf("%d", tr.Tick),
			fmt.Sprintf("%.4g", float64(tr.Tick)*r.Cfg.ScalerInterval),
			tr.Action.String(),
			fmt.Sprintf("%d", tr.Replica),
			fmt.Sprintf("%d", tr.Active),
			fmt.Sprintf("%.3f", tr.HeadroomFrac),
			fmt.Sprintf("%.3f", tr.RejectRate),
		)
	}
	st.AddRow("final", fmt.Sprintf("%.4g", r.Cfg.ScaleHorizon), "-", "-",
		fmt.Sprintf("%d", r.Scale.FinalActive), "-", "-")
	return []*stats.Table{rt, st}
}
