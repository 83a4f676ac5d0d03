package stats

import (
	"math"
)

// Welford accumulates streaming mean and variance. The zero value is an
// empty accumulator ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w Welford) Count() uint64 { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than two
// observations).
func (w Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 when empty).
func (w Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w Welford) Max() float64 { return w.max }

// Summary is a replication summary: the mean of per-replication values
// with a normal-approximation 95% confidence half-width.
type Summary struct {
	Mean   float64
	Half95 float64
	N      int
}

// Summarize reduces per-replication observations to a Summary.
func Summarize(values []float64) Summary {
	var w Welford
	for _, v := range values {
		w.Add(v)
	}
	s := Summary{Mean: w.Mean(), N: len(values)}
	if len(values) > 1 {
		s.Half95 = 1.96 * w.StdDev() / math.Sqrt(float64(len(values)))
	}
	return s
}
