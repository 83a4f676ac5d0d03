package degrade

import (
	"sync"
	"testing"

	"feasregion/internal/metrics"
	"feasregion/internal/task"
)

// fakeSensors is a controllable headroom/overrun source.
type fakeSensors struct {
	mu       sync.Mutex
	value    float64
	bound    float64
	overruns uint64
}

func (f *fakeSensors) headroom() (float64, float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.value, f.bound
}

func (f *fakeSensors) readOverruns() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.overruns
}

func (f *fakeSensors) set(value, bound float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.value, f.bound = value, bound
}

func (f *fakeSensors) addOverruns(n uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.overruns += n
}

func newTestGovernor(s *fakeSensors, cfg Config) *Governor {
	return New(cfg, Inputs{Headroom: s.headroom, Overruns: s.readOverruns})
}

func TestGovernorStartsNormal(t *testing.T) {
	s := &fakeSensors{value: 0, bound: 1}
	g := newTestGovernor(s, Config{})
	if g.State() != Normal || g.QualityCap() != task.QualityLevels {
		t.Fatalf("initial state %v cap %d", g.State(), g.QualityCap())
	}
	if g.AllowEviction() {
		t.Fatal("Normal must not permit eviction")
	}
	g.Tick()
	if g.State() != Normal || g.QualityCap() != task.QualityLevels {
		t.Fatal("healthy tick must not move the cap")
	}
}

func TestGovernorDegradesOneStepPerTick(t *testing.T) {
	s := &fakeSensors{value: 0.95, bound: 1} // headroom 5% < DegradeBelow
	g := newTestGovernor(s, Config{})
	for i := 1; i <= 3; i++ {
		g.Tick()
		if got := g.QualityCap(); got != task.QualityLevels-i {
			t.Fatalf("after %d ticks cap = %d, want %d", i, got, task.QualityLevels-i)
		}
		if g.State() != Degraded {
			t.Fatalf("state %v, want Degraded", g.State())
		}
	}
	if g.AllowEviction() {
		t.Fatal("Degraded must not permit eviction")
	}
}

func TestGovernorShedsImmediately(t *testing.T) {
	s := &fakeSensors{value: 0.999, bound: 1} // headroom ~0.1% < ShedBelow
	g := newTestGovernor(s, Config{})
	g.Tick()
	if g.State() != Shedding {
		t.Fatalf("state %v, want Shedding", g.State())
	}
	if g.QualityCap() != 0 {
		t.Fatalf("cap %d, want 0 (mandatory-only) in Shedding", g.QualityCap())
	}
	if !g.AllowEviction() {
		t.Fatal("Shedding must permit eviction")
	}
}

func TestGovernorRestoresMonotonically(t *testing.T) {
	s := &fakeSensors{value: 0.999, bound: 1}
	g := newTestGovernor(s, Config{})
	g.Tick() // shed: cap 0
	s.set(0.5, 1)
	prev := g.QualityCap()
	for i := 0; i < 2*task.QualityLevels; i++ {
		g.Tick()
		cur := g.QualityCap()
		if cur < prev {
			t.Fatalf("cap fell from %d to %d during recovery", prev, cur)
		}
		if cur > prev+1 {
			t.Fatalf("cap jumped from %d to %d: restore must be one step per tick", prev, cur)
		}
		prev = cur
	}
	if g.QualityCap() != task.QualityLevels {
		t.Fatalf("cap %d after long recovery, want full %d", g.QualityCap(), task.QualityLevels)
	}
	if g.State() != Normal {
		t.Fatalf("state %v after full recovery, want Normal", g.State())
	}
}

func TestGovernorHysteresisHoldsInBand(t *testing.T) {
	s := &fakeSensors{value: 0.95, bound: 1}
	g := newTestGovernor(s, Config{})
	g.Tick() // degrade one step
	cap := g.QualityCap()
	// Headroom in the band (DegradeBelow, RestoreAbove): nothing moves.
	s.set(0.78, 1) // headroom 22%
	for i := 0; i < 5; i++ {
		g.Tick()
		if g.QualityCap() != cap {
			t.Fatalf("cap moved to %d inside the hysteresis band", g.QualityCap())
		}
		if g.State() != Degraded {
			t.Fatalf("state %v, want Degraded while below full quality", g.State())
		}
	}
	// Above RestoreAbove: restores.
	s.set(0.5, 1)
	g.Tick()
	if g.QualityCap() != cap+1 {
		t.Fatal("cap should rise above RestoreAbove")
	}
}

func TestGovernorOverrunFeedbackDegrades(t *testing.T) {
	s := &fakeSensors{value: 0.2, bound: 1} // plenty of headroom
	g := newTestGovernor(s, Config{})
	g.Tick() // baseline the overrun counter
	if g.QualityCap() != task.QualityLevels {
		t.Fatal("healthy tick moved the cap")
	}
	s.addOverruns(3)
	g.Tick()
	if g.QualityCap() != task.QualityLevels-1 {
		t.Fatalf("cap %d, want one degrade step on overrun burst", g.QualityCap())
	}
	// No new overruns: the same cumulative count must not re-trigger.
	g.Tick()
	if g.QualityCap() != task.QualityLevels {
		t.Fatalf("cap %d, want restore once overruns quiesce with headroom high", g.QualityCap())
	}
}

func TestGovernorTrimmerFiresOnLoweredCap(t *testing.T) {
	s := &fakeSensors{value: 0.95, bound: 1}
	g := newTestGovernor(s, Config{})
	var calls []int
	g.SetTrimmer(func(maxLevel int) int {
		calls = append(calls, maxLevel)
		return 2
	})
	g.Tick()
	g.Tick()
	if len(calls) != 2 || calls[0] != task.QualityLevels-1 || calls[1] != task.QualityLevels-2 {
		t.Fatalf("trimmer calls %v, want caps %d then %d", calls, task.QualityLevels-1, task.QualityLevels-2)
	}
	if got := g.Stats().TrimmedTasks; got != 4 {
		t.Fatalf("TrimmedTasks = %d, want 4", got)
	}
	// Restore path must not trim.
	s.set(0.2, 1)
	g.Tick()
	if len(calls) != 2 {
		t.Fatal("trimmer fired on a restore tick")
	}
}

func TestGovernorTransitionsObserved(t *testing.T) {
	s := &fakeSensors{value: 0.95, bound: 1}
	g := newTestGovernor(s, Config{})
	var trans []State
	g.OnTransition(func(from, to State) { trans = append(trans, to) })
	g.Tick() // Normal -> Degraded
	s.set(0.999, 1)
	g.Tick() // Degraded -> Shedding
	s.set(0.2, 1)
	for i := 0; i <= task.QualityLevels; i++ {
		g.Tick() // Shedding -> Degraded -> ... -> Normal
	}
	want := []State{Degraded, Shedding, Degraded, Normal}
	if len(trans) != len(want) {
		t.Fatalf("transitions %v, want %v", trans, want)
	}
	for i := range want {
		if trans[i] != want[i] {
			t.Fatalf("transitions %v, want %v", trans, want)
		}
	}
	if g.Stats().Transitions != uint64(len(want)) {
		t.Fatalf("Transitions = %d, want %d", g.Stats().Transitions, len(want))
	}
}

func TestGovernorMetrics(t *testing.T) {
	s := &fakeSensors{value: 0.95, bound: 1}
	g := newTestGovernor(s, Config{})
	r := metrics.NewRegistry()
	g.SetMetrics(r)
	g.Tick()
	snap := r.Snapshot()
	get := func(name string) float64 {
		v, ok := snap[name]
		if !ok {
			t.Fatalf("metric %s not found in %v", name, snap)
		}
		return v.(float64)
	}
	if got := get("feasregion_governor_state"); got != float64(Degraded) {
		t.Fatalf("state gauge %v, want %v", got, float64(Degraded))
	}
	if got := get("feasregion_governor_quality_cap"); got != float64(task.QualityLevels-1) {
		t.Fatalf("cap gauge %v, want %v", got, task.QualityLevels-1)
	}
	if got := get("feasregion_governor_transitions_total"); got != 1 {
		t.Fatalf("transitions counter %v, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative levels":    {Levels: -1},
		"restore <= degrade": {DegradeBelow: 0.3, RestoreAbove: 0.2},
		"shed > degrade":     {ShedBelow: 0.5, DegradeBelow: 0.2, RestoreAbove: 0.6},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid config accepted")
				}
			}()
			New(cfg, Inputs{Headroom: func() (float64, float64) { return 0, 1 }})
		})
	}
}
