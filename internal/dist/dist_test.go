package dist

import (
	"math"
	"testing"
	"testing/quick"
)

const sampleN = 200_000

// sampleMean draws n samples and returns their mean.
func sampleMean(t *testing.T, d Distribution, g *RNG, n int) float64 {
	t.Helper()
	sum := 0.0
	for i := 0; i < n; i++ {
		v := d.Sample(g)
		if v < 0 {
			t.Fatalf("%s produced negative sample %v", d, v)
		}
		sum += v
	}
	return sum / float64(n)
}

func TestDistributionMeans(t *testing.T) {
	tests := []struct {
		name string
		d    Distribution
		tol  float64 // relative tolerance on the sample mean
	}{
		{"exponential", NewExponential(3.5), 0.02},
		{"uniform", NewUniform(1, 9), 0.02},
		{"deterministic", NewDeterministic(4.2), 1e-9},
		{"pareto", NewPareto(1.5, 1, 100), 0.05},
		{"scaled-exponential", NewScaled(NewExponential(2), 3), 0.02},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := NewRNG(1)
			got := sampleMean(t, tt.d, g, sampleN)
			want := tt.d.Mean()
			if math.Abs(got-want) > tt.tol*want {
				t.Errorf("%s: sample mean %.4f, analytic mean %.4f", tt.d, got, want)
			}
		})
	}
}

func TestUniformRange(t *testing.T) {
	u := NewUniform(2, 5)
	g := NewRNG(7)
	for i := 0; i < 10_000; i++ {
		v := u.Sample(g)
		if v < 2 || v > 5 {
			t.Fatalf("uniform sample %v outside [2, 5]", v)
		}
	}
}

func TestParetoRange(t *testing.T) {
	p := NewPareto(2, 1, 50)
	g := NewRNG(7)
	for i := 0; i < 10_000; i++ {
		v := p.Sample(g)
		if v < 1 || v > 50 {
			t.Fatalf("bounded pareto sample %v outside [1, 50]", v)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestSplitDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	ca, cb := a.Split(), b.Split()
	for i := 0; i < 1000; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatal("split streams from same parent state diverged")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children split in sequence must not produce the identical stream.
	g := NewRNG(42)
	c1, c2 := g.Split(), g.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("sibling streams agree on %d/100 draws; expected ~0", same)
	}
}

func TestExponentialSampleNonNegativeQuick(t *testing.T) {
	g := NewRNG(3)
	f := func(mean uint16) bool {
		m := float64(mean)/100 + 0.001
		d := NewExponential(m)
		for i := 0; i < 16; i++ {
			if d.Sample(g) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaledMeanQuick(t *testing.T) {
	f := func(mean, factor uint16) bool {
		m := float64(mean)/50 + 0.01
		k := float64(factor)/50 + 0.01
		s := NewScaled(NewExponential(m), k)
		return math.Abs(s.Mean()-m*k) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidParametersPanic(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"exponential zero mean", func() { NewExponential(0) }},
		{"exponential negative mean", func() { NewExponential(-1) }},
		{"uniform inverted", func() { NewUniform(5, 2) }},
		{"deterministic negative", func() { NewDeterministic(-0.5) }},
		{"pareto bad shape", func() { NewPareto(0, 1, 2) }},
		{"pareto empty range", func() { NewPareto(1, 2, 2) }},
		{"scaled zero factor", func() { NewScaled(NewExponential(1), 0) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestUUniFastSumsToTotal(t *testing.T) {
	g := NewRNG(6)
	for _, n := range []int{1, 2, 5, 20} {
		u := UUniFast(g, n, 0.8)
		sum := 0.0
		for _, v := range u {
			if v < 0 {
				t.Fatalf("n=%d: negative utilization %v", n, v)
			}
			sum += v
		}
		if math.Abs(sum-0.8) > 1e-9 {
			t.Fatalf("n=%d: utilizations sum to %v, want 0.8", n, sum)
		}
	}
}

func TestUUniFastMarginalMean(t *testing.T) {
	// Each component's expected value is total/n.
	g := NewRNG(7)
	const n, total, trials = 4, 1.0, 20000
	sums := make([]float64, n)
	for i := 0; i < trials; i++ {
		for j, v := range UUniFast(g, n, total) {
			sums[j] += v
		}
	}
	for j, s := range sums {
		if mean := s / trials; math.Abs(mean-total/n) > 0.01 {
			t.Fatalf("component %d mean %v, want %v", j, mean, total/n)
		}
	}
}

func TestUUniFastValidation(t *testing.T) {
	g := NewRNG(1)
	for _, fn := range []func(){
		func() { UUniFast(g, 0, 1) },
		func() { UUniFast(g, 3, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDistributionStrings(t *testing.T) {
	for _, tt := range []struct {
		d    Distribution
		want string
	}{
		{NewExponential(2), "Exp(mean=2)"},
		{NewUniform(1, 3), "Uniform[1, 3]"},
		{NewDeterministic(4), "Det(4)"},
		{NewPareto(1.5, 1, 10), "BoundedPareto(alpha=1.5, [1, 10])"},
		{NewScaled(NewExponential(2), 3), "3*Exp(mean=2)"},
	} {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestRNGUtilityMethods(t *testing.T) {
	g := NewRNG(1)
	if n := g.Intn(10); n < 0 || n >= 10 {
		t.Fatalf("Intn out of range: %d", n)
	}
	if v := g.Int63(); v < 0 {
		t.Fatalf("Int63 negative: %d", v)
	}
	_ = g.NormFloat64()
}
