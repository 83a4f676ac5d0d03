package workload

import (
	"fmt"
	"math"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// PipelineSpec describes the §4 synthetic workload for an N-stage
// pipeline with stage capacity normalized to 1.
type PipelineSpec struct {
	// Stages is the pipeline length.
	Stages int

	// Load is the offered input load as a fraction of the bottleneck
	// stage's capacity (1.0 = 100%; the paper sweeps 0.6–2.0).
	Load float64

	// MeanDemand is the mean per-stage computation time before scaling.
	MeanDemand float64

	// StageScale optionally skews per-stage mean demands (Fig. 6 load
	// imbalance); nil means balanced. Values are multipliers on
	// MeanDemand.
	StageScale []float64

	// Resolution is the ratio of the mean end-to-end deadline to the
	// mean total computation time (the paper's "task resolution"; ≈100
	// in Fig. 4, swept in Figs. 5 and 7).
	Resolution float64

	// DeadlineSpread widens the uniform deadline distribution to
	// mean·[1−s, 1+s]; 0 selects the default 0.5.
	DeadlineSpread float64
}

// validate panics on structurally impossible specs (programming errors).
func (s PipelineSpec) validate() {
	if s.Stages <= 0 {
		panic(fmt.Sprintf("workload: spec needs stages, got %d", s.Stages))
	}
	if s.Load <= 0 || s.MeanDemand <= 0 || s.Resolution <= 0 {
		panic(fmt.Sprintf("workload: load, mean demand, and resolution must be positive: %+v", s))
	}
	if s.StageScale != nil && len(s.StageScale) != s.Stages {
		panic(fmt.Sprintf("workload: %d stage scales for %d stages", len(s.StageScale), s.Stages))
	}
}

// stageMeans returns the per-stage mean demands after scaling.
func (s PipelineSpec) stageMeans() []float64 {
	means := make([]float64, s.Stages)
	for j := range means {
		means[j] = s.MeanDemand
		if s.StageScale != nil {
			means[j] *= s.StageScale[j]
		}
	}
	return means
}

// StageMeans returns the per-stage mean demands (for approximate
// admission estimators).
func (s PipelineSpec) StageMeans() []float64 {
	s.validate()
	return s.stageMeans()
}

// ArrivalRate returns the Poisson arrival rate λ that offers Load on the
// bottleneck (largest-mean) stage.
func (s PipelineSpec) ArrivalRate() float64 {
	s.validate()
	max := 0.0
	for _, m := range s.stageMeans() {
		if m > max {
			max = m
		}
	}
	return s.Load / max
}

// MeanDeadline returns the mean end-to-end deadline implied by the
// resolution: Resolution × (mean total computation).
func (s PipelineSpec) MeanDeadline() float64 {
	s.validate()
	total := 0.0
	for _, m := range s.stageMeans() {
		total += m
	}
	return s.Resolution * total
}

// Source is an open-loop Poisson arrival generator feeding a sink.
type Source struct {
	sim    *des.Simulator
	next   des.Alarm // the pending arrival of the unmodulated schedule
	rng    *dist.RNG
	offer  func(*task.Task)
	demand []dist.Distribution
	dline  dist.Distribution
	rate   float64
	nextID task.ID
	count  uint64
	horiz  des.Time
	start  func()
}

// NewSource builds the §4 generator. offer is called with each arrival
// (typically pipeline.Offer). Arrivals stop after horizon.
func NewSource(sim *des.Simulator, spec PipelineSpec, seed int64, horizon des.Time, offer func(*task.Task)) *Source {
	spec.validate()
	if offer == nil {
		panic("workload: nil offer sink")
	}
	means := spec.stageMeans()
	demands := make([]dist.Distribution, len(means))
	for j, m := range means {
		demands[j] = dist.NewExponential(m)
	}
	spread := spec.DeadlineSpread
	if spread == 0 {
		spread = 0.5
	}
	if spread < 0 || spread >= 1 {
		panic(fmt.Sprintf("workload: deadline spread %v must be in [0, 1)", spread))
	}
	md := spec.MeanDeadline()
	s := &Source{
		sim:    sim,
		rng:    dist.NewRNG(seed),
		offer:  offer,
		demand: demands,
		dline:  dist.NewUniform(md*(1-spread), md*(1+spread)),
		rate:   spec.ArrivalRate(),
		horiz:  horizon,
	}
	s.next = sim.NewAlarm(s)
	s.start = s.scheduleNext
	return s
}

// Generated returns how many tasks the source has offered.
func (s *Source) Generated() uint64 { return s.count }

// SetFirstID makes the source assign task IDs starting at id, so the ID
// space can be partitioned when combining several generators on one
// system (task IDs must be globally unique per run).
func (s *Source) SetFirstID(id task.ID) { s.nextID = id }

// Start schedules the first arrival (or, for modulated variants, the
// first phase).
func (s *Source) Start() {
	s.start()
}

func (s *Source) scheduleNext() {
	gap := s.rng.ExpFloat64() / s.rate
	at := s.sim.Now() + gap
	if at > s.horiz {
		return
	}
	s.next.Arm(at)
}

// Fire delivers the pending arrival and arms the next one. It makes
// Source a des.Timer, the target of its arrival alarm, so the
// steady-state arrival loop allocates nothing beyond the task itself.
func (s *Source) Fire(des.Time) {
	s.emit()
	s.scheduleNext()
}

func (s *Source) emit() {
	now := s.sim.Now()
	demands := make([]float64, len(s.demand))
	for j, d := range s.demand {
		demands[j] = d.Sample(s.rng)
	}
	t := task.Chain(s.nextID, now, s.dline.Sample(s.rng), demands...)
	s.nextID++
	s.count++
	s.offer(t)
}

// PeriodicStream describes a periodic (or sporadic, via jitter) stream of
// identical chain tasks.
type PeriodicStream struct {
	// Name labels instances (Task.Class).
	Name string
	// Period separates nominal releases; Phase offsets the first one.
	Period, Phase float64
	// Jitter adds U[0, Jitter] to each nominal release (the §1 motivation:
	// jittered periodic streams handled by the aperiodic model).
	Jitter float64
	// Deadline is the relative end-to-end deadline of each instance.
	Deadline float64
	// Demands are the fixed per-stage computation times.
	Demands []float64
	// Importance is the semantic importance of instances.
	Importance float64
}

// Schedule releases instances of the stream into offer until horizon.
// IDs are drawn from *nextID, which is advanced. rng drives jitter only.
func (ps PeriodicStream) Schedule(sim *des.Simulator, rng *dist.RNG, horizon des.Time, nextID *task.ID, offer func(*task.Task)) {
	if ps.Period <= 0 || ps.Deadline <= 0 {
		panic(fmt.Sprintf("workload: stream %q needs positive period and deadline", ps.Name))
	}
	for k := 0; ; k++ {
		at := ps.Phase + float64(k)*ps.Period
		if ps.Jitter > 0 {
			at += rng.Float64() * ps.Jitter
		}
		if at > horizon {
			return
		}
		id := *nextID
		*nextID++
		sim.At(at, func() {
			t := task.Chain(id, at, ps.Deadline, ps.Demands...)
			t.Class = ps.Name
			t.Importance = ps.Importance
			offer(t)
		})
	}
}

// Utilization returns the stream's steady per-stage synthetic
// utilization contribution C_j/D (one current instance at a time when
// Period ≥ Deadline).
func (ps PeriodicStream) Utilization() []float64 {
	us := make([]float64, len(ps.Demands))
	for j, c := range ps.Demands {
		us[j] = c / ps.Deadline
	}
	return us
}

// TotalDemand returns the stream instance's total computation time.
func (ps PeriodicStream) TotalDemand() float64 {
	sum := 0.0
	for _, c := range ps.Demands {
		sum += c
	}
	return sum
}

// HeavyTailedSource mirrors NewSource but draws demands from a bounded
// Pareto distribution — a stress case for approximate admission (§4.4),
// where using the mean underestimates occasional huge tasks.
func HeavyTailedSource(sim *des.Simulator, spec PipelineSpec, alpha float64, seed int64, horizon des.Time, offer func(*task.Task)) *Source {
	spec.validate()
	src := NewSource(sim, spec, seed, horizon, offer)
	for j, m := range spec.stageMeans() {
		// Bounded Pareto on [low, 100·low] with the requested shape,
		// rescaled to preserve the stage mean.
		p := dist.NewPareto(alpha, 1, 100)
		src.demand[j] = dist.NewScaled(p, m/p.Mean())
	}
	return src
}

// ImbalanceScales is a helper for Fig. 6: scale factors (2r/(1+r),
// 2/(1+r)) give a two-stage mean-demand ratio r while keeping the total
// mean demand constant.
func ImbalanceScales(ratio float64) []float64 {
	if ratio <= 0 || math.IsNaN(ratio) {
		panic(fmt.Sprintf("workload: imbalance ratio must be positive, got %v", ratio))
	}
	return []float64{2 * ratio / (1 + ratio), 2 / (1 + ratio)}
}
