package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// formatValue renders a sample value per the Prometheus text format.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// withLabel splices an extra label into a rendered label suffix.
func withLabel(key, name, value string) string {
	extra := name + `="` + escapeLabel(value) + `"`
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE lines per family,
// then one sample line per series; histograms expand into cumulative
// _bucket series plus _sum and _count. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		r.mu.Lock()
		order := append([]string(nil), f.order...)
		rows := make([]*series, len(order))
		for i, key := range order {
			rows[i] = f.byKey[key]
		}
		r.mu.Unlock()
		for _, s := range rows {
			if f.kind == KindHistogram {
				bounds, cumulative := s.hist.snapshotBuckets()
				for i, bound := range bounds {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", formatValue(bound)), cumulative[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", "+Inf"), cumulative[len(cumulative)-1])
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, formatValue(s.hist.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, cumulative[len(cumulative)-1])
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.value()))
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the Prometheus text page —
// mount it at /metrics. A nil registry serves an empty page.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// HistogramSnapshot is the snapshot form of one histogram series.
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []uint64  `json:"cumulative"` // aligned with Bounds, +Inf last
	Sum        float64   `json:"sum"`
	Count      uint64    `json:"count"`
}

// Snapshot returns every series' current value keyed by its full series
// name (family plus rendered labels). Scalar series map to float64;
// histograms map to HistogramSnapshot. A nil registry returns an empty
// map. Weakly consistent under concurrent writes.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	type row struct {
		name string
		s    *series
		kind Kind
	}
	var rows []row
	for _, n := range r.names {
		f := r.families[n]
		for _, key := range f.order {
			rows = append(rows, row{name: n + key, s: f.byKey[key], kind: f.kind})
		}
	}
	r.mu.Unlock()
	for _, rw := range rows {
		if rw.kind == KindHistogram {
			bounds, cumulative := rw.s.hist.snapshotBuckets()
			out[rw.name] = HistogramSnapshot{
				Bounds:     bounds,
				Cumulative: cumulative,
				Sum:        rw.s.hist.Sum(),
				Count:      cumulative[len(cumulative)-1],
			}
			continue
		}
		out[rw.name] = rw.s.value()
	}
	return out
}
