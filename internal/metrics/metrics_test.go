package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", []float64{1})
	r.GaugeFunc("e", "", func() float64 { return 1 })
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry export = %q, %v", sb.String(), err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", Stage(1))
	b := r.Counter("x_total", "x", Stage(1))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("x_total", "x", Stage(2))
	if other == a {
		t.Fatal("distinct labels must return distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", ExponentialBuckets(1, 2, 4)) // 1 2 4 8
	for _, v := range []float64{0.5, 1, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 113 {
		t.Fatalf("sum = %v, want 113", h.Sum())
	}
	bounds, cum := h.snapshotBuckets()
	wantCum := []uint64{2, 3, 4, 5, 6}
	if len(bounds) != 4 {
		t.Fatalf("bounds = %v", bounds)
	}
	for i, w := range wantCum {
		if cum[i] != w {
			t.Fatalf("cumulative = %v, want %v", cum, wantCum)
		}
	}
	if q := h.Quantile(0.5); q < 1 || q > 4 {
		t.Fatalf("median estimate %v outside [1, 4]", q)
	}
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("overflow quantile = %v, want highest bound 8", q)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("feas_admitted_total", "admitted tasks").Add(7)
	r.Gauge("feas_util", "utilization", Stage(0)).Set(0.25)
	r.Gauge("feas_util", "utilization", Stage(1)).Set(0.5)
	h := r.Histogram("feas_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	r.CounterFunc("feas_expired_total", "expired", func() float64 { return 3 })
	r.Gauge("feas_health", `ratio with "quotes" and \slash`, Label{Name: "stage", Value: `a"b`}).Set(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE feas_admitted_total counter\n",
		"feas_admitted_total 7\n",
		"# TYPE feas_util gauge\n",
		`feas_util{stage="0"} 0.25`,
		`feas_util{stage="1"} 0.5`,
		"# TYPE feas_latency_seconds histogram\n",
		`feas_latency_seconds_bucket{le="0.1"} 1`,
		`feas_latency_seconds_bucket{le="1"} 1`,
		`feas_latency_seconds_bucket{le="+Inf"} 2`,
		"feas_latency_seconds_sum 5.05\n",
		"feas_latency_seconds_count 2\n",
		"# TYPE feas_expired_total counter\n",
		"feas_expired_total 3\n",
		`feas_health{stage="a\"b"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q in:\n%s", want, out)
		}
	}
	// HELP lines must not contain raw newlines and quotes in help are fine.
	if strings.Contains(out, "# HELP feas_health ratio with \"quotes\" and \\slash\n") == false {
		t.Fatalf("help line mangled:\n%s", out)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap["c_total"] != float64(2) {
		t.Fatalf("snapshot counter = %v", snap["c_total"])
	}
	hs, ok := snap["h"].(HistogramSnapshot)
	if !ok || hs.Count != 1 || hs.Sum != 0.5 {
		t.Fatalf("snapshot histogram = %#v", snap["h"])
	}
}

func TestConcurrentUpdatesAndExport(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ExponentialBuckets(0.001, 4, 8))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) / 10)
				if i%100 == 0 {
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4000 || g.Value() != 4000 || h.Count() != 4000 {
		t.Fatalf("lost updates: c=%d g=%v h=%d", c.Value(), g.Value(), h.Count())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", "", ExponentialBuckets(1e-6, 4, 12))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

// BenchmarkHistogramObservePlain is BenchmarkHistogramObserve on the
// single-writer form: the same bucket search, no atomics.
func BenchmarkHistogramObservePlain(b *testing.B) {
	h := NewPlainHistogram(ExponentialBuckets(1e-6, 4, 12))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

func TestLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"all\\\"\n", `all\\\"\n`},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// End to end: a hostile label value survives the text exposition.
	r := NewRegistry()
	r.Gauge("g", "", Label{Name: "path", Value: "a\\b\"c\nd"}).Set(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `g{path="a\\b\"c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition %q missing %q", sb.String(), want)
	}
}

func TestReplicaAndStageLabelsCompose(t *testing.T) {
	r := NewRegistry()
	// The same family split by (replica, stage): four distinct series.
	for rep := 0; rep < 2; rep++ {
		for j := 0; j < 2; j++ {
			r.Gauge("headroom", "per-replica per-stage", Replica(rep), Stage(j)).Set(float64(rep*10 + j))
		}
	}
	if got := Replica(3); got.Name != "replica" || got.Value != "3" {
		t.Fatalf("Replica(3) = %+v", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`headroom{replica="0",stage="0"} 0`,
		`headroom{replica="0",stage="1"} 1`,
		`headroom{replica="1",stage="0"} 10`,
		`headroom{replica="1",stage="1"} 11`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestOwnerMismatchPanicsByName asks for a series as a different
// instrument than the one that owns it: every accessor panics with a
// message naming the series and its owner, not an interface conversion.
// A mismatch of kinds (a gauge asked of a counter family) is named at
// the family level.
func TestOwnerMismatchPanicsByName(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("c_total", "", func() float64 { return 1 }, Stage(0))
	r.GaugeFunc("g", "", func() float64 { return 1 })
	r.HistogramFunc("h", "", NewPlainHistogram([]float64{1}))
	r.Histogram("ah", "", []float64{1})
	r.Counter("n_total", "")
	cases := []struct {
		name string
		fn   func()
		want string
	}{
		{"Counter over CounterFunc", func() { r.Counter("c_total", "", Stage(0)) },
			`metrics: series c_total{stage="0"} is registered as a CounterFunc or GaugeFunc, not a Counter`},
		{"Gauge over GaugeFunc", func() { r.Gauge("g", "") },
			"metrics: series g is registered as a CounterFunc or GaugeFunc, not a Gauge"},
		{"Histogram over HistogramFunc", func() { r.Histogram("h", "", []float64{1}) },
			"metrics: series h is registered as a HistogramFunc, not a Histogram"},
		{"HistogramFunc over Histogram", func() { r.HistogramFunc("ah", "", NewPlainHistogram([]float64{1})) },
			"metrics: series ah is registered as a Histogram, not a HistogramFunc"},
		{"CounterFunc over Counter", func() { r.CounterFunc("n_total", "", func() float64 { return 0 }) },
			"metrics: series n_total is registered as a Counter, not a CounterFunc or GaugeFunc"},
		{"Gauge over Counter", func() { r.Gauge("n_total", "") },
			"metrics: n_total registered as counter, re-registered as gauge"},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				got, _ := recover().(string)
				if got != tc.want {
					t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
				}
			}()
			tc.fn()
		}()
	}
	// Re-registering with the owner's own kind still works.
	r.GaugeFunc("g", "", func() float64 { return 2 })
	if v := r.Snapshot()["g"]; v != 2.0 {
		t.Fatalf("re-registered GaugeFunc reads %v, want 2", v)
	}
	p := NewPlainHistogram([]float64{1})
	p.Observe(0.5)
	r.HistogramFunc("h", "", p)
	if s := r.Snapshot()["h"].(HistogramSnapshot); s.Count != 1 {
		t.Fatalf("re-registered HistogramFunc count %d, want 1", s.Count)
	}
}
