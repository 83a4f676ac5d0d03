package core

import (
	"math"
	"testing"
	"testing/quick"

	"feasregion/internal/dist"
	"feasregion/internal/task"
)

func TestAlphaDeadlineMonotonicIsOne(t *testing.T) {
	// DM: priority equals the deadline, so no urgency inversion.
	params := []TaskParams{
		{Priority: 1, Deadline: 1},
		{Priority: 2, Deadline: 2},
		{Priority: 10, Deadline: 10},
	}
	if got := Alpha(params); got != 1 {
		t.Fatalf("Alpha(DM) = %v, want 1", got)
	}
}

func TestAlphaSingleInversion(t *testing.T) {
	// A task with deadline 10 is given top priority over a task with
	// deadline 2: the pair (hi=D10, lo=D2) has ratio 2/10.
	params := []TaskParams{
		{Priority: 0, Deadline: 10},
		{Priority: 1, Deadline: 2},
	}
	if got := Alpha(params); !almostEqual(got, 0.2, 1e-12) {
		t.Fatalf("Alpha = %v, want 0.2", got)
	}
}

func TestAlphaEqualPriorityCountsBothWays(t *testing.T) {
	// Equal priorities mean each is "equal or higher" than the other, so
	// the ratio Dshort/Dlong applies.
	params := []TaskParams{
		{Priority: 5, Deadline: 4},
		{Priority: 5, Deadline: 8},
	}
	if got := Alpha(params); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("Alpha = %v, want 0.5", got)
	}
}

func TestAlphaEmptySetIsOne(t *testing.T) {
	if got := Alpha(nil); got != 1 {
		t.Fatalf("Alpha(nil) = %v, want 1", got)
	}
}

// alphaForPolicy assigns the policy's priorities over the sample and
// runs Alpha on the resulting (priority, deadline) pairs.
func alphaForPolicy(p task.Policy, sample []*task.Task, g *dist.RNG) float64 {
	params := make([]TaskParams, len(sample))
	for i, t := range sample {
		params[i] = TaskParams{Priority: p.Assign(t, g), Deadline: t.Deadline}
	}
	return Alpha(params)
}

func TestAlphaRandomApproachesDeadlineRatio(t *testing.T) {
	// Paper §2: with random priorities, α = Dleast/Dmost over the set.
	g := dist.NewRNG(9)
	var tasks []*task.Task
	for i := 0; i < 500; i++ {
		d := 1 + 9*g.Float64() // deadlines in [1, 10]
		tasks = append(tasks, task.Chain(task.ID(i), 0, d, 0.1))
	}
	got := alphaForPolicy(task.Random{}, tasks, g)
	// With 500 tasks the sampled min/max deadlines are close to 1 and 10,
	// and random priorities almost surely invert that extreme pair.
	if got > 0.25 || got < 0.05 {
		t.Fatalf("Alpha(random) = %v, want ≈ Dleast/Dmost ≈ 0.1", got)
	}
}

func TestAlphaForDMPolicyIsOne(t *testing.T) {
	g := dist.NewRNG(9)
	var tasks []*task.Task
	for i := 0; i < 100; i++ {
		tasks = append(tasks, task.Chain(task.ID(i), 0, 1+g.Float64()*9, 0.1))
	}
	if got := alphaForPolicy(task.DeadlineMonotonic{}, tasks, g); got != 1 {
		t.Fatalf("Alpha(DM policy) = %v, want 1", got)
	}
}

func TestAlphaSemanticImportanceInversion(t *testing.T) {
	// An important long-deadline task over an urgent short-deadline task.
	urgent := task.Chain(1, 0, 1, 0.1)
	urgent.Importance = 1
	relaxed := task.Chain(2, 0, 20, 0.1)
	relaxed.Importance = 9
	g := dist.NewRNG(1)
	got := alphaForPolicy(task.SemanticImportance{}, []*task.Task{urgent, relaxed}, g)
	if !almostEqual(got, 0.05, 1e-12) {
		t.Fatalf("Alpha(semantic) = %v, want 1/20", got)
	}
}

// TestAlphaNeverExceedsOneQuick and is the exact pairwise minimum.
func TestAlphaMatchesBruteForceQuick(t *testing.T) {
	brute := func(params []TaskParams) float64 {
		alpha := 1.0
		for _, hi := range params {
			for _, lo := range params {
				if hi.Priority <= lo.Priority && lo.Deadline > 0 && hi.Deadline > 0 {
					if r := lo.Deadline / hi.Deadline; r < alpha {
						alpha = r
					}
				}
			}
		}
		return alpha
	}
	f := func(raw []uint8) bool {
		var params []TaskParams
		for i := 0; i+1 < len(raw); i += 2 {
			params = append(params, TaskParams{
				Priority: float64(raw[i] % 8),
				Deadline: float64(raw[i+1]%16) + 1,
			})
		}
		got := Alpha(params)
		want := brute(params)
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
