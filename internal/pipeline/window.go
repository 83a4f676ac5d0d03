package pipeline

import (
	"feasregion/internal/des"
	"feasregion/internal/sched"
	"feasregion/internal/stats"
)

// window is the measurement state Pipeline and GraphSystem share: the
// start instant, each resource's busy-time baseline, and the response
// and deadline statistics of the tasks completed since.
type window struct {
	measuring     bool
	measureStart  des.Time
	busyAtStart   []float64
	responseTimes stats.Welford
	respP50       *stats.Quantile
	respP95       *stats.Quantile
	respP99       *stats.Quantile
	missRatio     stats.Ratio
	completed     uint64
	missed        uint64
}

// begin opens the window at now over the resources' busy times.
func (w *window) begin(now des.Time, resources []*sched.Stage) {
	w.measuring = true
	w.measureStart = now
	w.busyAtStart = make([]float64, len(resources))
	for k, st := range resources {
		w.busyAtStart[k] = st.BusyTime(now)
	}
	w.responseTimes = stats.Welford{}
	w.respP50 = stats.NewQuantile(0.50)
	w.respP95 = stats.NewQuantile(0.95)
	w.respP99 = stats.NewQuantile(0.99)
	w.missRatio = stats.Ratio{}
	w.completed, w.missed = 0, 0
}

// complete records one task completion inside the window.
func (w *window) complete(resp float64, miss bool) {
	w.completed++
	w.responseTimes.Add(resp)
	w.respP50.Add(resp)
	w.respP95.Add(resp)
	w.respP99.Add(resp)
	w.missRatio.Observe(miss)
	if miss {
		w.missed++
	}
}

// snapshot reports the shared statistics over [begin, now], with each
// resource's busy fraction as its StageUtilization.
func (w *window) snapshot(now des.Time, resources []*sched.Stage) Metrics {
	if !w.measuring {
		panic("pipeline: Snapshot before BeginMeasurement")
	}
	m := Metrics{
		StageUtilization: make([]float64, len(resources)),
		Completed:        w.completed,
		Missed:           w.missed,
		MissRatio:        w.missRatio.Value(),
		ResponseTimes:    w.responseTimes,
		ResponseP50:      w.respP50.Value(),
		ResponseP95:      w.respP95.Value(),
		ResponseP99:      w.respP99.Value(),
	}
	span := now - w.measureStart
	for k, st := range resources {
		u := 0.0
		if span > 0 {
			u = (st.BusyTime(now) - w.busyAtStart[k]) / span
		}
		m.StageUtilization[k] = u
		m.MeanUtilization += u / float64(len(resources))
		if u > m.BottleneckUtilization {
			m.BottleneckUtilization = u
		}
	}
	return m
}
