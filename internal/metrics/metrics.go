package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the instrument type of a family, fixed at first registration.
type Kind uint8

// Instrument kinds, mapping onto Prometheus metric types.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name="value" pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// Stage returns the conventional per-stage label.
func Stage(j int) Label { return Label{Name: "stage", Value: fmt.Sprintf("%d", j)} }

// Replica returns the conventional per-replica label used by the
// cluster layer to split one metric family across fleet members.
func Replica(i int) Label { return Label{Name: "replica", Value: fmt.Sprintf("%d", i)} }

// series is the common identity of one registered instrument.
type series struct {
	labels string // rendered {a="b",...} suffix, "" when unlabeled
	// value reads the series' current scalar value (counter, gauge, or
	// func instruments); nil for histograms.
	value func() float64
	hist  histSource
}

// histSource is what a scrape reads from a histogram series: the atomic
// Histogram, or a PlainHistogram exported with HistogramFunc.
type histSource interface {
	snapshotBuckets() (bounds []float64, cumulative []uint64)
	Sum() float64
}

// family groups all series registered under one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	order  []string           // label keys in registration order
	byKey  map[string]*series // label key → series
	owners map[string]any     // label key → concrete instrument, for idempotent re-registration
}

// Registry holds registered instruments and renders snapshots. A nil
// *Registry is the disabled mode: every lookup returns a nil instrument
// whose methods are no-ops. Construct enabled registries with
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order of families
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey renders labels into the canonical {k="v",...} suffix, sorted
// by label name. Values are escaped per the Prometheus text format.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double-quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// register resolves (name, labels) to its series slot, creating family
// and slot as needed, and enforcing one kind per family. It returns the
// existing owner instrument when the series was already registered, or
// nil when the caller should install its own via installOwner.
func (r *Registry) register(name, help string, kind Kind, labels []Label) (f *family, key string, existing any) {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}, owners: map[string]any{}}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, re-registered as %s", name, f.kind, kind))
	}
	key = labelKey(labels)
	return f, key, f.owners[key]
}

// ownedAs returns a series' existing owner as the instrument type T, and
// panics with the series and both owner types when another kind of
// instrument or a func series owns it.
func ownedAs[T any](f *family, key string, existing any) T {
	v, ok := existing.(T)
	if !ok {
		var want T
		panic(fmt.Sprintf("metrics: series %s%s is registered as %s, not %s", f.name, key, ownerName(existing), ownerName(want)))
	}
	return v
}

// ownerName names an owner type for ownedAs's panic message.
func ownerName(owner any) string {
	switch owner.(type) {
	case *Counter:
		return "a Counter"
	case *Gauge:
		return "a Gauge"
	case *Histogram:
		return "a Histogram"
	case *PlainHistogram:
		return "a HistogramFunc"
	case func() float64:
		return "a CounterFunc or GaugeFunc"
	default:
		return fmt.Sprintf("%T", owner)
	}
}

// installOwner records a freshly created instrument for its series.
func (f *family) installOwner(key string, owner any, value func() float64, hist histSource) {
	f.owners[key] = owner
	f.byKey[key] = &series{labels: key, value: value, hist: hist}
	f.order = append(f.order, key)
}

// Counter returns the monotonically increasing counter for the series,
// registering it on first use. Returns nil (a no-op) on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, existing := r.register(name, help, KindCounter, labels)
	if existing != nil {
		return ownedAs[*Counter](f, key, existing)
	}
	c := &Counter{}
	f.installOwner(key, c, func() float64 { return float64(c.Value()) }, nil)
	return c
}

// Gauge returns the gauge for the series, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, existing := r.register(name, help, KindGauge, labels)
	if existing != nil {
		return ownedAs[*Gauge](f, key, existing)
	}
	g := &Gauge{}
	f.installOwner(key, g, g.Value, nil)
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot
// time — for mirroring externally maintained state (e.g. a controller's
// internal counters) without touching its hot path. Re-registering the
// same series replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.funcSeries(name, help, KindGauge, fn, labels)
}

// CounterFunc is GaugeFunc for monotone values: the series is exported
// with TYPE counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.funcSeries(name, help, KindCounter, fn, labels)
}

func (r *Registry) funcSeries(name, help string, kind Kind, fn func() float64, labels []Label) {
	if r == nil {
		return
	}
	if fn == nil {
		panic("metrics: nil func for series " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, existing := r.register(name, help, kind, labels)
	if existing != nil {
		ownedAs[func() float64](f, key, existing)
		f.byKey[key].value = fn
		return
	}
	f.installOwner(key, fn, fn, nil)
}

// HistogramFunc exports h as a histogram series read at scrape time:
// the histogram's single writer keeps it as plain state and pays nothing
// per observation beyond the bucket add, while every scrape reads the
// buckets and sum directly. A scrape must therefore not run concurrently
// with that writer (see the package doc). Re-registering the same series
// replaces the histogram.
func (r *Registry) HistogramFunc(name, help string, h *PlainHistogram, labels ...Label) {
	if r == nil {
		return
	}
	if h == nil {
		panic("metrics: nil histogram for series " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, existing := r.register(name, help, KindHistogram, labels)
	if existing != nil {
		ownedAs[*PlainHistogram](f, key, existing)
		f.owners[key] = h
		f.byKey[key].hist = h
		return
	}
	f.installOwner(key, h, nil, h)
}

// Histogram returns the histogram for the series, registering it on
// first use. buckets are the inclusive upper bounds of each bucket, in
// strictly increasing order (the +Inf bucket is implicit); they are
// fixed at first registration and ignored on re-registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key, existing := r.register(name, help, KindHistogram, labels)
	if existing != nil {
		return ownedAs[*Histogram](f, key, existing)
	}
	h := newHistogram(buckets)
	f.installOwner(key, h, nil, h)
	return h
}

// ---- Counter ----

// Counter is a monotonically increasing counter. The zero value is
// ready; all methods are nil-receiver-safe no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// ---- Gauge ----

// Gauge is an instantaneous float64 value. The zero value reads 0; all
// methods are nil-receiver-safe no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (atomic via CAS).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// ---- Histogram ----

// Histogram counts observations into fixed buckets with inclusive upper
// bounds, plus a running sum. The count is the bucket total, so a
// snapshot's count always equals its +Inf bucket. Updates are lock-free;
// snapshots are weakly consistent (bucket counts and sum may momentarily
// disagree under concurrent writes), which Prometheus scraping tolerates.
// All methods are nil-receiver-safe no-ops.
type Histogram struct {
	buckets
	counts  []atomic.Uint64 // one per bound, plus the +Inf overflow at the end
	sumBits atomic.Uint64
}

// ExponentialBuckets returns count bucket bounds starting at start and
// multiplying by factor — the fixed-log-bucket layout used for latency
// histograms. start must be positive and factor > 1.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("metrics: invalid exponential buckets (start %v, factor %v, count %d)", start, factor, count))
	}
	b := make([]float64, count)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// buckets is a histogram's bucket layout: its bounds, and where the
// bucket search starts for an observation of a given binary exponent.
type buckets struct {
	bounds []float64 // inclusive upper bounds, ascending
	// below[k-lo] counts the bounds under every float64 whose sign and
	// exponent bits are k (positive finite binades from the first bound's
	// up); other values, and layouts of over 255 bounds, search from 0.
	lo    int
	below [64]uint8
}

// newBuckets validates histogram bucket bounds and indexes a private
// copy.
func newBuckets(bounds []float64) buckets {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram bounds must be strictly increasing, got %v", bounds))
		}
	}
	b := buckets{bounds: append([]float64(nil), bounds...)}
	if bounds[0] > 0 {
		b.lo = int(math.Float64bits(bounds[0]) >> 52)
	}
	// Keys from 0x7ff up are +Inf and NaN: no finite binade.
	for k := 0; k < len(b.below) && b.lo+k < 0x7ff && len(bounds) <= math.MaxUint8; k++ {
		low := math.Float64frombits(uint64(b.lo+k) << 52) // the binade's least value (0 for key 0)
		b.below[k] = uint8(sort.SearchFloat64s(bounds, low))
	}
	return b
}

func newHistogram(bounds []float64) *Histogram {
	b := newBuckets(bounds)
	return &Histogram{buckets: b, counts: make([]atomic.Uint64, len(b.bounds)+1)}
}

// bucketOf returns the index of the bucket v falls in: the first bound
// v does not exceed, or len(bounds) (the overflow bucket). The search
// skips the bounds below v's binade, which v exceeds, then scans with
// the v > bounds[i] test, so it picks the bucket a scan from 0 would.
// With a ratio of at least 2 between bounds it makes at most two
// comparisons; no allocation.
func (b *buckets) bucketOf(v float64) int {
	i := 0
	if k := int(math.Float64bits(v)>>52) - b.lo; uint(k) < uint(len(b.below)) {
		i = int(b.below[k])
	}
	for i < len(b.bounds) && v > b.bounds[i] {
		i++
	}
	return i
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) assuming
// observations are spread uniformly within each bucket. It returns the
// highest finite bound for mass in the overflow bucket, and 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return quantile(h.bounds, h.load(), q)
}

// load reads every bucket count once.
func (h *Histogram) load() []uint64 {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts
}

// snapshotBuckets returns cumulative bucket counts aligned with bounds,
// the overflow count folded into the final (+Inf) entry.
func (h *Histogram) snapshotBuckets() (bounds []float64, cumulative []uint64) {
	return h.bounds, cumulate(h.load())
}

// ---- PlainHistogram ----

// PlainHistogram is Histogram for a single writer: the same buckets,
// bucket arithmetic and quantile estimate over plain counters and a
// plain float64 sum, so an observation is one bucket add and one float
// add. Use it where exactly one goroutine observes — a simulated stage —
// and export it with Registry.HistogramFunc; readers (scrapes, Quantile
// callers) must run on that goroutine or while it is stopped. All
// methods are nil-receiver-safe no-ops.
type PlainHistogram struct {
	buckets
	counts []uint64 // one per bound, plus the +Inf overflow at the end
	sum    float64
}

// NewPlainHistogram returns an empty single-writer histogram over the
// given strictly increasing inclusive upper bounds (+Inf is implicit).
func NewPlainHistogram(buckets []float64) *PlainHistogram {
	b := newBuckets(buckets)
	return &PlainHistogram{buckets: b, counts: make([]uint64, len(b.bounds)+1)}
}

// Observe records one value. NaN observations are dropped.
func (h *PlainHistogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[h.bucketOf(v)]++
	h.sum += v
}

// Count returns the number of observations (0 for nil).
func (h *PlainHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return total(h.counts)
}

// Sum returns the sum of observations (0 for nil).
func (h *PlainHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Quantile is Histogram.Quantile.
func (h *PlainHistogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return quantile(h.bounds, h.counts, q)
}

// snapshotBuckets is Histogram.snapshotBuckets.
func (h *PlainHistogram) snapshotBuckets() (bounds []float64, cumulative []uint64) {
	return h.bounds, cumulate(append([]uint64(nil), h.counts...))
}

// ---- shared bucket arithmetic ----

// total returns the bucket total: the observation count.
func total(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

// cumulate turns per-bucket counts into cumulative counts in place.
func cumulate(counts []uint64) []uint64 {
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	return counts
}

// quantile is the uniform-within-bucket q-quantile estimate behind both
// histogram forms' Quantile, over one read of the bucket counts.
func quantile(bounds []float64, counts []uint64, q float64) float64 {
	n := total(counts)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	cum := 0.0
	for i, c := range counts {
		c := float64(c)
		if cum+c >= rank && c > 0 {
			if i == len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (rank - cum) / c
			return lo + frac*(bounds[i]-lo)
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}
