package experiments

import (
	"reflect"
	"sync"
	"testing"

	"feasregion/internal/cluster"
)

// clusterResultOnce runs the full default cluster experiment exactly
// once; the assertion tests share the result.
var clusterResultOnce = sync.OnceValue(func() ClusterResult {
	return Cluster(DefaultCluster())
})

// missesAt sums one policy's misses across seeds at one load factor,
// with the health loop open (health=false) or closed.
func missesAt(r ClusterResult, pol cluster.Policy, load float64, health bool) uint64 {
	for _, v := range r.Variants {
		if v.Policy == pol && v.Load == load && v.Health == health {
			return v.Missed
		}
	}
	return 0
}

// TestClusterP2CBeatsRoundRobin is the headline routing claim: with the
// health loop open, power-of-two-choices placement strictly beats
// round-robin on deadline misses at and above 1.5x fleet load, and
// never does worse with the loop closed.
func TestClusterP2CBeatsRoundRobin(t *testing.T) {
	res := clusterResultOnce()
	for _, load := range []float64{1.5, 2.0} {
		rr := missesAt(res, cluster.RoundRobin, load, false)
		p2c := missesAt(res, cluster.PowerOfTwo, load, false)
		if p2c >= rr {
			t.Errorf("open loop at %.1fx: p2c misses %d, want strictly below round-robin's %d", load, p2c, rr)
		}
		rrC := missesAt(res, cluster.RoundRobin, load, true)
		p2cC := missesAt(res, cluster.PowerOfTwo, load, true)
		if p2cC > rrC {
			t.Errorf("closed loop at %.1fx: p2c misses %d > round-robin's %d", load, p2cC, rrC)
		}
	}
}

// TestClusterHealthLoopCollapsesMisses checks the complementary claim:
// closing the per-replica stage-health loop cuts misses for every
// policy below the best any policy manages with the loop open.
func TestClusterHealthLoopCollapsesMisses(t *testing.T) {
	res := clusterResultOnce()
	for _, load := range res.Cfg.Loads {
		openMin, closedMax := ^uint64(0), uint64(0)
		for _, pol := range cluster.Policies {
			if m := missesAt(res, pol, load, false); m < openMin {
				openMin = m
			}
			if m := missesAt(res, pol, load, true); m > closedMax {
				closedMax = m
			}
		}
		if closedMax >= openMin {
			t.Errorf("at %.1fx: worst closed-loop misses %d, want below best open-loop %d", load, closedMax, openMin)
		}
	}
}

// TestClusterAwareRoutingAdmitsMore checks that headroom-aware
// placement converts the same offered load into more admissions than
// blind rotation in every cell.
func TestClusterAwareRoutingAdmitsMore(t *testing.T) {
	res := clusterResultOnce()
	for _, v := range res.Variants {
		if v.Policy == cluster.RoundRobin {
			continue
		}
		var rr ClusterVariant
		for _, w := range res.Variants {
			if w.Policy == cluster.RoundRobin && w.Load == v.Load && w.Health == v.Health {
				rr = w
			}
		}
		if v.Admitted <= rr.Admitted {
			t.Errorf("%v at %.1fx (health=%v): admitted %d, want above round-robin's %d",
				v.Policy, v.Load, v.Health, v.Admitted, rr.Admitted)
		}
	}
}

// TestClusterAutoscalerConverges checks the Part B step response: the
// scaler grows the fleet after the load step and then holds it steady —
// no scale actions in the final third of the run, and no down/up
// oscillation at all under a sustained step.
func TestClusterAutoscalerConverges(t *testing.T) {
	res := clusterResultOnce()
	s := res.Scale
	if s.UpActions == 0 {
		t.Fatal("autoscaler never scaled up under a 5x load step")
	}
	if s.LateTransitions != 0 {
		t.Errorf("scaler still transitioning in the final third: %d late actions", s.LateTransitions)
	}
	if s.DownActions != 0 {
		t.Errorf("scaler drained %d replicas under a sustained step (oscillation)", s.DownActions)
	}
	cfg := res.Cfg.Scaler
	if s.FinalActive <= cfg.Min || s.FinalActive > cfg.Max {
		t.Errorf("final fleet size %d outside (%d, %d]", s.FinalActive, cfg.Min, cfg.Max)
	}
}

// TestClusterDeterministic re-runs the whole experiment and demands
// bit-identical results: the simulation, the routing probes, and the
// scaler timeline are all driven by seeded state.
func TestClusterDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("second full experiment run")
	}
	a := clusterResultOnce()
	b := Cluster(DefaultCluster())
	if !reflect.DeepEqual(a.Variants, b.Variants) {
		t.Error("routing variants differ between identically-seeded runs")
	}
	if !reflect.DeepEqual(a.Scale, b.Scale) {
		t.Error("scaler timelines differ between identically-seeded runs")
	}
}
