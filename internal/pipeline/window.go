package pipeline

import (
	"feasregion/internal/des"
	"feasregion/internal/sched"
	"feasregion/internal/stats"
)

// window is the measurement state Pipeline and GraphSystem share: the
// start instant, each resource's busy-time baseline, the response-time
// moments and miss count of the tasks completed since, and a callback.
type window struct {
	measuring     bool
	measureStart  des.Time
	busyAtStart   []float64
	responseTimes stats.Welford
	completed     uint64
	missed        uint64
	onComplete    func(response float64, missed bool)
}

// OnComplete registers fn (nil removes it) to run on each completion
// after BeginMeasurement with the response time and miss flag that
// Snapshot aggregates, in completion order. Callers that want response
// percentiles keep their own estimators here, as cmd/pipesim does.
func (w *window) OnComplete(fn func(response float64, missed bool)) { w.onComplete = fn }

// begin opens the window at now over the resources' busy times.
func (w *window) begin(now des.Time, resources []*sched.Stage) {
	w.measuring = true
	w.measureStart = now
	w.busyAtStart = make([]float64, len(resources))
	for k, st := range resources {
		w.busyAtStart[k] = st.BusyTime(now)
	}
	w.responseTimes = stats.Welford{}
	w.completed, w.missed = 0, 0
}

// complete records one task completion inside the window.
func (w *window) complete(resp float64, miss bool) {
	w.completed++
	w.responseTimes.Add(resp)
	if miss {
		w.missed++
	}
	if w.onComplete != nil {
		w.onComplete(resp, miss)
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
		ResponseTimes:    w.responseTimes,
	}
	if w.completed > 0 {
		m.MissRatio = float64(w.missed) / float64(w.completed)
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
