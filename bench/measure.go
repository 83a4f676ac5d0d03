package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// epoch anchors mono; time.Since reads only the monotonic clock, about
// half the cost of time.Now.
var epoch = time.Now()

// mono returns monotonic nanoseconds since process start.
func mono() int64 { return int64(time.Since(epoch)) }

func secondsSince(t0 int64) float64 { return float64(mono()-t0) / 1e9 }

// median returns the middle of xs (the mean of the middle two for an
// even count), or NaN for none. xs is not modified.
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (its
// default exclusive method); a single value is all three. xs is not
// modified.
func quartiles(xs []float64) [3]float64 {
	n := len(xs)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentile returns the p-quantile (0 < p < 1) of samples as an order
// statistic (nearest rank), sorting samples in place; 0 for none.
func percentile(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !slices.IsSorted(samples) {
		slices.Sort(samples)
	}
	k := int(math.Ceil(p*float64(len(samples)))) - 1
	k = max(0, min(k, len(samples)-1))
	return float64(samples[k])
}

// The calibration job is a fixed piece of work owned by the benchmark:
// calSteps pushes of pseudo-random keys into a binary min-heap of float64
// that pops its minimum once it holds calHeapSize keys, the access
// pattern of an event queue. It allocates nothing and runs no repository
// code, so no change to the program changes it. Other tenants of the
// host slow it about as much as they slow the workloads (see README), so
// host times are reported in reference seconds: measured seconds scaled
// by calRefSeconds over the job's time next to the measurement.
const (
	calSteps    = 200_000
	calHeapSize = 1 << 15
	// calRefSeconds is the job's time on the baseline host when no other
	// tenant disturbs it (its fastest tenth of runs there).
	calRefSeconds = 0.018
)

var calHeap = make([]float64, 0, calHeapSize+1)

// hostScale runs the calibration job on a quiet heap and returns the
// reference seconds per host second: below 1 while the host runs slow.
func hostScale() float64 {
	runtime.GC()
	h := calHeap[:0]
	x, now := uint64(1), 0.0
	t0 := mono()
	for i := 0; i < calSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h = heapPush(h, now+float64(x>>40)/(1<<24))
		if len(h) > calHeapSize {
			now, h = heapPop(h)
		}
	}
	secs := secondsSince(t0)
	calHeap = h
	return calRefSeconds / secs
}

func heapPush(h []float64, v float64) []float64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if h[up] <= v {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = v
	return h
}

func heapPop(h []float64) (float64, []float64) {
	top, n := h[0], len(h)-1
	v := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if v <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = v
	}
	return top, h
}

// memDelta measures heap allocation across a region of code.
type memDelta struct{ before runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

// stop returns the allocations and bytes allocated since start.
func (m *memDelta) stop() (allocs, bytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - m.before.Mallocs, after.TotalAlloc - m.before.TotalAlloc
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuModel names the host CPU for the run record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvFold folds v into an FNV-1a digest byte by byte.
func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
