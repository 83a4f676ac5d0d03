package experiments

import (
	"fmt"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/sched"
	"feasregion/internal/stats"
	"feasregion/internal/task"
	"feasregion/internal/tasktable"
)

// AdversarialConfig parameterizes the worst-case-pattern tightness study.
type AdversarialConfig struct {
	// Utilizations are the synthetic-utilization targets to construct.
	Utilizations []float64
	// Dmax is the interferers' relative deadline; the victim's deadline
	// is larger (so it has the lowest deadline-monotonic priority).
	Dmax float64
}

// DefaultAdversarial returns the default sweep.
func DefaultAdversarial() AdversarialConfig {
	return AdversarialConfig{
		Utilizations: []float64{0.2, 0.3, 0.4, 0.5},
		Dmax:         50,
	}
}

// AdversarialTightness constructs the proof's worst-case flavor of
// arrival pattern on a single stage (paper §3.1, Lemma 5): a lowest-
// priority victim arrives at the start of a busy period; higher-priority
// interferers with deadline Dmax arrive back-to-back (A_{i+1} = A_i +
// C_i) for as long as the synthetic utilization stays at the target U.
// The victim's observed delay is compared with the stage delay theorem's
// bound f(U)·Dmax. The pattern pushes the observed/bound ratio far above
// what Poisson traffic achieves (≈0.4 in the BoundTightness experiment),
// demonstrating that the bound's shape follows the true worst case.
func AdversarialTightness(cfg AdversarialConfig) *stats.Table {
	t := &stats.Table{
		Title:  "Extension: stage delay under the proof's adversarial pattern vs the Theorem 1 bound",
		Header: []string{"target U", "victim delay", "bound f(U)·Dmax", "ratio"},
	}
	for _, u := range cfg.Utilizations {
		delay, peak := runAdversarial(u, cfg.Dmax)
		bound := core.StageDelayFactor(peak) * cfg.Dmax
		ratio := 0.0
		if bound > 0 {
			ratio = delay / bound
		}
		t.AddRow(
			fmt.Sprintf("%.2f", peak),
			fmt.Sprintf("%.3f", delay),
			fmt.Sprintf("%.3f", bound),
			fmt.Sprintf("%.3f", ratio),
		)
	}
	return t
}

// runAdversarial builds the pattern for one utilization target and
// returns the victim's observed stage delay and the peak synthetic
// utilization actually reached.
func runAdversarial(target, dmax float64) (delay, peak float64) {
	sim := des.New()
	st := sched.New(sim, "s0")
	region := tasktable.NewState(1, nil)
	charge := func(id task.ID, v float64) {
		region.Insert(uint64(id), int64(id), 0, []float64{v})
		peak = max(peak, region.Util(0))
	}

	const victimDeadline = 1e9 // lowest DM priority
	var victimDone des.Time
	st.Submit(0, victimDeadline, task.NewSubtask(0.5), func(now des.Time) { victimDone = now })
	charge(0, 0.5/victimDeadline)

	// Interferers: C chosen so each contributes c/dmax of utilization;
	// arrive back-to-back while the victim is still queued and the
	// utilization stays under the target.
	const c = 1.0
	at := 0.0
	id := task.ID(1)
	var schedule func()
	schedule = func() {
		if victimDone > 0 {
			return
		}
		if region.Util(0)+c/dmax > target {
			// Past the target: stop injecting; the victim drains.
			return
		}
		charge(id, c/dmax)
		st.Submit(id, dmax, task.NewSubtask(c), nil)
		k := uint64(id)
		sim.At(at+dmax, func() {
			if slot, ok := region.Lookup(k); ok {
				region.Drop(slot)
			}
		})
		id++
		at += c
		sim.At(at, schedule)
	}
	sim.At(0, schedule)
	sim.Run()
	return victimDone, peak
}
