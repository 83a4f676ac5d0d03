package curve

import (
	"fmt"
	"io"
	"strings"
)

// Point is one step of the curve: utilization Value from Time until the
// next point.
type Point struct {
	Time  float64
	Value float64
}

// Curve is a right-continuous step function sampled from one stage.
type Curve struct {
	stage  int
	points []Point
}

// Recorder collects one curve per stage. Wire Observe to
// core.Controller.OnUtilizationChange.
type Recorder struct {
	curves []*Curve
}

// NewRecorder returns a recorder for the given number of stages, with
// every curve starting at (0, initial[j]) (nil initial means zero).
func NewRecorder(stages int, initial []float64) *Recorder {
	if stages <= 0 {
		panic(fmt.Sprintf("curve: need stages, got %d", stages))
	}
	if initial != nil && len(initial) != stages {
		panic(fmt.Sprintf("curve: %d initial values for %d stages", len(initial), stages))
	}
	r := &Recorder{}
	for j := 0; j < stages; j++ {
		u0 := 0.0
		if initial != nil {
			u0 = initial[j]
		}
		r.curves = append(r.curves, &Curve{stage: j, points: []Point{{Time: 0, Value: u0}}})
	}
	return r
}

// Observe appends a step; it has the signature of
// core.Controller.OnUtilizationChange.
func (r *Recorder) Observe(stage int, now float64, u float64) {
	c := r.curves[stage]
	last := &c.points[len(c.points)-1]
	if last.Value == u {
		return // no visible step
	}
	if last.Time == now {
		// Same-instant change: collapse (keep the final value).
		last.Value = u
		// Drop a redundant middle point if the collapse flattened it.
		if n := len(c.points); n >= 2 && c.points[n-2].Value == u {
			c.points = c.points[:n-1]
		}
		return
	}
	c.points = append(c.points, Point{Time: now, Value: u})
}

// Curve returns the recorded step function for a stage.
func (r *Recorder) Curve(stage int) []Point {
	return append([]Point(nil), r.curves[stage].points...)
}

// Area integrates the stage's curve over [from, to] — the paper's area
// property says that, over a busy period with no idle resets, this
// equals the total computation time of the contributing tasks.
func (r *Recorder) Area(stage int, from, to float64) float64 {
	if to <= from {
		return 0
	}
	pts := r.curves[stage].points
	area := 0.0
	for i, p := range pts {
		segStart := p.Time
		segEnd := to
		if i+1 < len(pts) {
			segEnd = pts[i+1].Time
		}
		if segEnd <= from || segStart >= to {
			continue
		}
		if segStart < from {
			segStart = from
		}
		if segEnd > to {
			segEnd = to
		}
		area += p.Value * (segEnd - segStart)
	}
	return area
}

// Render draws the stage's curve as an ASCII plot over [from, to] with
// the given width and height; each column shows the curve's mean value
// over its time slice.
func (r *Recorder) Render(w io.Writer, stage int, from, to float64, width, height int) error {
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	if to <= from {
		pts := r.curves[stage].points
		from = pts[0].Time
		to = from + 1
		if n := len(pts); n > 1 {
			to = pts[n-1].Time
		}
	}
	cols := make([]float64, width)
	maxV := 0.0
	step := (to - from) / float64(width)
	for i := range cols {
		a, b := from+float64(i)*step, from+float64(i+1)*step
		cols[i] = r.Area(stage, a, b) / step
		if cols[i] > maxV {
			maxV = cols[i]
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	if _, err := fmt.Fprintf(w, "stage %d synthetic utilization over [%.4g, %.4g] (max %.3f)\n", stage+1, from, to, maxV); err != nil {
		return err
	}
	for row := height - 1; row >= 0; row-- {
		threshold := maxV * (float64(row) + 0.5) / float64(height)
		var b strings.Builder
		for _, v := range cols {
			if v >= threshold {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		if _, err := fmt.Fprintf(w, "%6.3f |%s|\n", maxV*float64(row+1)/float64(height), b.String()); err != nil {
			return err
		}
	}
	return nil
}
