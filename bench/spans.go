package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// sampleEvery is the arrival sampling rate of the span file: every
// sampleEvery-th arrival's spans are kept in full.
const sampleEvery = 1000

// spanRecord is one sampled span as written to the span file. Spans of
// one arrival share Request; Parent is 0 for a root span.
type spanRecord struct {
	ID      uint64 `json:"id"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  uint64 `json:"parent"`
}

// spanAgg aggregates the spans of one name within a pass. Durations are
// kept only where percentiles are reported.
type spanAgg struct {
	count int64
	sum   int64
	durs  []int64 // nil unless percentiles are wanted
}

func (a *spanAgg) add(d int64) {
	a.count++
	a.sum += d
	if a.durs != nil {
		a.durs = append(a.durs, d)
	}
}

// tracer records spans from the benchmark's own code around each call
// into a layer. It is owned by one goroutine; concurrent clients each
// get their own and are merged afterwards.
type tracer struct {
	step    spanAgg // des.Simulator.Step
	call    spanAgg // the workload's offer or route call
	records []spanRecord
	nextID  uint64
}

func newTracer(expected int) *tracer {
	return &tracer{call: spanAgg{durs: make([]int64, 0, expected)}}
}

func (t *tracer) id() uint64 {
	t.nextID++
	return t.nextID
}

// merge folds another client's spans into t.
func (t *tracer) merge(o *tracer) {
	t.step.count += o.step.count
	t.step.sum += o.step.sum
	t.call.count += o.call.count
	t.call.sum += o.call.sum
	t.call.durs = append(t.call.durs, o.call.durs...)
	t.records = append(t.records, o.records...)
}

// writeSpans writes the sampled span records as JSON lines.
func writeSpans(path string, recs []spanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
