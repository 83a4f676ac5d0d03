package metrics

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestHistogramPrometheusGolden pins the exposition text of a fixed
// observation sequence byte for byte.
func TestHistogramPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	bounds := ExponentialBuckets(1e-3, 4, 5)
	lat := r.Histogram("lat_seconds", "Latency.", bounds, Label{Name: "stage", Value: "0"})
	lat2 := r.Histogram("lat_seconds", "Latency.", bounds, Label{Name: "stage", Value: "1"})
	for i := 0; i < 200; i++ {
		v := float64(i*i%997) * 3.7e-4
		lat.Observe(v)
		if i%3 == 0 {
			lat2.Observe(v * 9)
		}
	}
	lat.Observe(1e-3) // exactly on a bound: inclusive
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{stage="0",le="0.001"} 3
lat_seconds_bucket{stage="0",le="0.004"} 6
lat_seconds_bucket{stage="0",le="0.016"} 16
lat_seconds_bucket{stage="0",le="0.064"} 42
lat_seconds_bucket{stage="0",le="0.256"} 146
lat_seconds_bucket{stage="0",le="+Inf"} 201
lat_seconds_sum{stage="0"} 34.92160000000001
lat_seconds_count{stage="0"} 201
lat_seconds_bucket{stage="1",le="0.001"} 1
lat_seconds_bucket{stage="1",le="0.004"} 1
lat_seconds_bucket{stage="1",le="0.016"} 1
lat_seconds_bucket{stage="1",le="0.064"} 2
lat_seconds_bucket{stage="1",le="0.256"} 6
lat_seconds_bucket{stage="1",le="+Inf"} 67
lat_seconds_sum{stage="1"} 99.08081999999997
lat_seconds_count{stage="1"} 67
`
	if got := b.String(); got != want {
		t.Fatalf("exposition changed:\n%s\nwant:\n%s", got, want)
	}
	if c := lat.Count(); c != 201 {
		t.Fatalf("Count() = %d, want 201", c)
	}
}

// TestHistogramCountMatchesInfBucket scrapes while writers observe:
// every scrape's _count must equal its +Inf bucket, and every
// snapshot's Count its last cumulative bucket.
func TestHistogramCountMatchesInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", ExponentialBuckets(1, 2, 4))
	const writers, per = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64((i + w) % 20))
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		sc := bufio.NewScanner(&b)
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, `h_bucket{le="+Inf"} `); ok {
				inf = v
			}
			if v, ok := strings.CutPrefix(line, "h_count "); ok {
				count = v
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("scrape: +Inf bucket %q, _count %q", inf, count)
		}
		s := r.Snapshot()["h"].(HistogramSnapshot)
		if s.Count != s.Cumulative[len(s.Cumulative)-1] {
			t.Fatalf("snapshot: Count %d, +Inf cumulative %d", s.Count, s.Cumulative[len(s.Cumulative)-1])
		}
	}
	if c := h.Count(); c != writers*per {
		t.Fatalf("Count() = %d, want %d", c, writers*per)
	}
}

// TestPlainHistogramMatchesAtomic feeds the same observations to the
// atomic and the plain histogram form — NaN (dropped), values exactly
// on a bound (inclusive), overflow past the last bound, and no
// observations at all — and requires the rendered buckets, Sum, Count
// and every Quantile to agree bit for bit.
func TestPlainHistogramMatchesAtomic(t *testing.T) {
	bounds := ExponentialBuckets(1e-3, 4, 6)
	inputs := map[string][]float64{
		"empty":    nil,
		"nan only": {math.NaN(), math.NaN()},
		"on bounds": append(append([]float64(nil), bounds...),
			bounds[0], bounds[len(bounds)-1], 0),
		"overflow": {5, 1e9, math.Inf(1), bounds[len(bounds)-1] * 1.0000001},
		"mixed":    nil,
	}
	for i := 0; i < 500; i++ {
		v := float64(i*i%997) * 1.3e-3
		if i%37 == 0 {
			v = math.NaN()
		}
		inputs["mixed"] = append(inputs["mixed"], v, -v/7)
	}
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for name, vs := range inputs {
		r := NewRegistry()
		a := r.Histogram("h", "help", bounds, Label{Name: "form", Value: "x"})
		p := NewPlainHistogram(bounds)
		for _, v := range vs {
			a.Observe(v)
			p.Observe(v)
		}
		var ab bytes.Buffer
		if err := r.WritePrometheus(&ab); err != nil {
			t.Fatal(err)
		}
		pr := NewRegistry()
		pr.HistogramFunc("h", "help", p, Label{Name: "form", Value: "x"})
		var pb bytes.Buffer
		if err := pr.WritePrometheus(&pb); err != nil {
			t.Fatal(err)
		}
		if ab.String() != pb.String() {
			t.Errorf("%s: pages differ:\natomic:\n%s\nplain:\n%s", name, ab.String(), pb.String())
		}
		if a.Count() != p.Count() {
			t.Errorf("%s: Count atomic %d, plain %d", name, a.Count(), p.Count())
		}
		if math.Float64bits(a.Sum()) != math.Float64bits(p.Sum()) {
			t.Errorf("%s: Sum atomic %v, plain %v", name, a.Sum(), p.Sum())
		}
		for _, q := range qs {
			if aq, pq := a.Quantile(q), p.Quantile(q); math.Float64bits(aq) != math.Float64bits(pq) {
				t.Errorf("%s: Quantile(%v) atomic %v, plain %v", name, q, aq, pq)
			}
		}
		as, ps := r.Snapshot()[`h{form="x"}`], pr.Snapshot()[`h{form="x"}`]
		if !reflect.DeepEqual(as, ps) {
			t.Errorf("%s: snapshots differ: %+v vs %+v", name, as, ps)
		}
	}
}

// TestPlainHistogramNilIsNoOp pins the nil-receiver contract.
func TestPlainHistogramNilIsNoOp(t *testing.T) {
	var h *PlainHistogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil PlainHistogram must read zero")
	}
	var r *Registry
	r.HistogramFunc("h", "", NewPlainHistogram([]float64{1}))
}

// TestBucketOfMatchesLinearScan checks that both histogram forms file
// every observation where a linear scan of the bounds puts it: each
// bound, both float64 neighbours of each bound, ±0, a negative value,
// +Inf and NaN, over exponential, linear (several bounds per binade),
// irregular (negative and subnormal bounds), very wide (bounds past the
// exponent index), huge (an index reaching the top binade) and very
// long (no index) layouts.
func TestBucketOfMatchesLinearScan(t *testing.T) {
	linear := func(bounds []float64, v float64) int {
		i := 0
		for i < len(bounds) && v > bounds[i] {
			i++
		}
		return i
	}
	var lin, long []float64
	for i := 1; i <= 40; i++ {
		lin = append(lin, 0.05*float64(i))
	}
	for i := 0; i < 300; i++ {
		long = append(long, float64(i)-10)
	}
	layouts := map[string][]float64{
		"exponential": ExponentialBuckets(1e-3, 4, 12),
		"linear":      lin,
		"irregular":   {-7, -0.5, 0, 5e-324, 1e-310, 3e-9, 0.3, 0.31, 2, 1e10, math.MaxFloat64},
		"wide":        ExponentialBuckets(1e-300, 1e25, 24),
		"huge":        {1e300, math.MaxFloat64},
		"long":        long,
	}
	for name, bounds := range layouts {
		values := []float64{0, math.Copysign(0, -1), -3.5, math.Inf(1), math.NaN()}
		for _, b := range bounds {
			values = append(values, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		}
		for _, v := range values {
			want := linear(bounds, v)
			h, p := newHistogram(bounds), NewPlainHistogram(bounds)
			if got := h.bucketOf(v); got != want {
				t.Errorf("%s: Histogram files %v in bucket %d, linear scan %d", name, v, got, want)
			}
			if got := p.bucketOf(v); got != want {
				t.Errorf("%s: PlainHistogram files %v in bucket %d, linear scan %d", name, v, got, want)
			}
			if math.IsNaN(v) {
				continue // dropped by Observe
			}
			h.Observe(v)
			p.Observe(v)
			if h.counts[want].Load() != 1 || p.counts[want] != 1 {
				t.Errorf("%s: Observe(%v) did not count in bucket %d", name, v, want)
			}
		}
	}
}
