package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// This file pins the bit-exact outputs of the -run adapt and -run
// cluster experiments as captured on the reference binary-heap event
// core, so any reordering introduced by the calendar-queue engine (or a
// later event-core change) fails loudly instead of silently shifting
// every published number. The goldens cover reduced-scale (-quick
// mirror) configurations; run-to-run determinism at full scale is
// asserted separately by TestAdaptDeterministic/TestClusterDeterministic.

// goldenAdaptConfig is the reduced-scale adapt configuration pinned by
// the event-core determinism test (mirrors the -quick overrides).
func goldenAdaptConfig() AdaptConfig {
	cfg := quickAdapt()
	cfg.Seeds = 1
	return cfg
}

// goldenClusterConfig mirrors the -quick overrides in cmd/experiments.
func goldenClusterConfig() ClusterConfig {
	cfg := DefaultCluster()
	cfg.Seeds = 1
	cfg.Horizon, cfg.Warmup = 300, 40
	cfg.SlowStart, cfg.SlowLen = 60, 220
	cfg.ScaleHorizon, cfg.ScaleWarmup, cfg.StepAt = 600, 30, 150
	return cfg
}

// formatAdapt renders every numeric outcome of the adapt experiment in
// a canonical bit-exact form (%v on float64 prints the shortest
// round-trippable representation).
func formatAdapt(res AdaptResult) string {
	var b strings.Builder
	for _, v := range res.Variants {
		fmt.Fprintf(&b, "%s offered=%d entered=%d completed=%d missed=%d accept=%v detected=%d inflation=%v alpha=%v bound=%v updates=%d\n",
			v.Name, v.Offered, v.Entered, v.Completed, v.Missed, v.AcceptRatio, v.Detected, v.LiarInflation, v.Alpha, v.Bound, v.RegionUpdates)
	}
	return b.String()
}

// formatCluster renders every routing cell and the autoscaler timeline.
func formatCluster(res ClusterResult) string {
	var b strings.Builder
	for _, v := range res.Variants {
		fmt.Fprintf(&b, "pol=%v load=%v health=%v offered=%d admitted=%d completed=%d missed=%d rollbacks=%d ratio=%v balance=%v\n",
			v.Policy, v.Load, v.Health, v.Offered, v.Admitted, v.Completed, v.Missed, v.Rollbacks, v.AdmitRatio, v.Balance)
	}
	s := res.Scale
	fmt.Fprintf(&b, "scale final=%d up=%d down=%d late=%d transitions=%d\n",
		s.FinalActive, s.UpActions, s.DownActions, s.LateTransitions, len(s.Transitions))
	for _, tr := range s.Transitions {
		fmt.Fprintf(&b, "  %+v\n", tr)
	}
	return b.String()
}

// Captured on the pre-rewrite container/heap event calendar
// (commit e2ea5c2); the calendar-queue core must reproduce both runs
// bit-for-bit.
const goldenAdapt = `static offered=759 entered=210 completed=203 missed=7 accept=0.2766798418972332 detected=327 inflation=0 alpha=0 bound=0 updates=0
adaptive offered=759 entered=191 completed=193 missed=6 accept=0.2516469038208169 detected=130 inflation=3.625 alpha=1 bound=1 updates=0
`

const goldenCluster = `pol=round-robin load=1 health=false offered=801 admitted=490 completed=450 missed=24 rollbacks=0 ratio=0.6117353308364545 balance=0.29555557958660833
pol=headroom-greedy load=1 health=false offered=801 admitted=517 completed=508 missed=17 rollbacks=9 ratio=0.6454431960049938 balance=0.4603081481091382
pol=p2c load=1 health=false offered=801 admitted=513 completed=484 missed=14 rollbacks=25 ratio=0.6404494382022472 balance=0.34261131097859265
pol=round-robin load=1 health=true offered=801 admitted=446 completed=438 missed=0 rollbacks=0 ratio=0.5568039950062422 balance=0.46105465283721325
pol=headroom-greedy load=1 health=true offered=801 admitted=503 completed=504 missed=7 rollbacks=69 ratio=0.6279650436953808 balance=0.4465734788043577
pol=p2c load=1 health=true offered=801 admitted=468 completed=467 missed=10 rollbacks=50 ratio=0.5842696629213483 balance=0.4087342803232405
pol=round-robin load=1.5 health=false offered=1203 admitted=554 completed=523 missed=24 rollbacks=0 ratio=0.4605153782211139 balance=0.3163892639510503
pol=headroom-greedy load=1.5 health=false offered=1203 admitted=585 completed=575 missed=24 rollbacks=11 ratio=0.486284289276808 balance=0.4325855595372717
pol=p2c load=1.5 health=false offered=1203 admitted=597 completed=563 missed=23 rollbacks=32 ratio=0.49625935162094764 balance=0.34439492956389806
pol=round-robin load=1.5 health=true offered=1203 admitted=516 completed=524 missed=1 rollbacks=0 ratio=0.428927680798005 balance=0.442133232022973
pol=headroom-greedy load=1.5 health=true offered=1203 admitted=573 completed=579 missed=6 rollbacks=85 ratio=0.4763092269326683 balance=0.3419960978889148
pol=p2c load=1.5 health=true offered=1203 admitted=555 completed=559 missed=2 rollbacks=44 ratio=0.4613466334164589 balance=0.4042001704326431
pol=round-robin load=2 health=false offered=1588 admitted=608 completed=565 missed=10 rollbacks=0 ratio=0.38287153652392947 balance=0.3417573664209342
pol=headroom-greedy load=2 health=false offered=1588 admitted=650 completed=614 missed=17 rollbacks=30 ratio=0.4093198992443325 balance=0.3789941202229863
pol=p2c load=2 health=false offered=1588 admitted=653 completed=602 missed=15 rollbacks=26 ratio=0.41120906801007556 balance=0.3230285267064987
pol=round-robin load=2 health=true offered=1588 admitted=572 completed=574 missed=9 rollbacks=0 ratio=0.3602015113350126 balance=0.4495808393973723
pol=headroom-greedy load=2 health=true offered=1588 admitted=640 completed=645 missed=8 rollbacks=103 ratio=0.40302267002518893 balance=0.3928963555362038
pol=p2c load=2 health=true offered=1588 admitted=595 completed=587 missed=10 rollbacks=57 ratio=0.37468513853904284 balance=0.40512921404489943
scale final=5 up=4 down=0 late=0 transitions=4
  {Tick:32 Action:scale-up Replica:1 Active:2 HeadroomFrac:0.008647374856609824 RejectRate:0.8571428571428571}
  {Tick:40 Action:scale-up Replica:2 Active:3 HeadroomFrac:0.10005780486924643 RejectRate:0.5}
  {Tick:46 Action:scale-up Replica:3 Active:4 HeadroomFrac:0.15095678672228882 RejectRate:0.15384615384615385}
  {Tick:62 Action:scale-up Replica:4 Active:5 HeadroomFrac:0.4226004887187108 RejectRate:0.25}
`

// TestAdaptGoldenUnchanged asserts the adapt experiment reproduces the
// heap-core numbers bit-for-bit on the current event core.
func TestAdaptGoldenUnchanged(t *testing.T) {
	got := formatAdapt(Adapt(goldenAdaptConfig()))
	if got != goldenAdapt {
		t.Errorf("-run adapt output changed on the current event core:\ngot:\n%s\nwant:\n%s", got, goldenAdapt)
	}
}

// TestClusterGoldenUnchanged asserts the cluster experiment — routing
// cells and the autoscaler's transition timeline — reproduces the
// heap-core numbers bit-for-bit on the current event core.
func TestClusterGoldenUnchanged(t *testing.T) {
	got := formatCluster(Cluster(goldenClusterConfig()))
	if got != goldenCluster {
		t.Errorf("-run cluster output changed on the current event core:\ngot:\n%s\nwant:\n%s", got, goldenCluster)
	}
}
