package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// writeTrace saves a replay in the binary trace format, deriving the
// class table from the tasks' Class labels in first-seen order. It
// returns the record count written.
func writeTrace(w io.Writer, r *Replay) (uint64, error) {
	var classes []string
	seen := map[string]bool{}
	for _, t := range r.Tasks {
		if t.Class != "" && !seen[t.Class] {
			seen[t.Class] = true
			classes = append(classes, t.Class)
		}
	}
	tw, err := NewTraceWriter(w, r.Stages(), classes)
	if err != nil {
		return 0, err
	}
	class := map[string]int{}
	for i, c := range classes {
		class[c] = i
	}
	for _, t := range r.Tasks {
		c, ok := class[t.Class]
		if !ok {
			c = -1
		}
		demands := make([]float64, len(t.Subtasks))
		for j, s := range t.Subtasks {
			demands[j] = s.Demand
		}
		if err := tw.Write(t.Arrival, t.Deadline, c, demands); err != nil {
			return 0, err
		}
	}
	if err := tw.Close(); err != nil {
		return 0, err
	}
	return tw.Count(), nil
}

// readTrace materializes a binary trace as a Replay (task IDs assigned
// by position, classes resolved from the table).
func readTrace(r io.Reader) (*Replay, error) {
	tr, err := OpenTrace(r)
	if err != nil {
		return nil, err
	}
	rep := &Replay{}
	var rec TraceRecord
	for {
		if err := tr.Next(&rec); err != nil {
			if err == io.EOF {
				return rep, nil
			}
			return nil, err
		}
		t := task.Chain(task.ID(len(rep.Tasks)), rec.Arrival, rec.Deadline, rec.Demands...)
		if rec.Class >= 0 {
			t.Class = tr.classes[rec.Class]
		}
		rep.Tasks = append(rep.Tasks, t)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	rep, err := ParseReplay(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	rep.Tasks[0].Class = "gold"
	rep.Tasks[1].Class = "bronze"

	var buf bytes.Buffer
	n, err := writeTrace(&buf, rep)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(rep.Tasks)) {
		t.Fatalf("wrote %d records for %d tasks", n, len(rep.Tasks))
	}

	back, err := readTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tasks) != len(rep.Tasks) {
		t.Fatalf("round trip changed task count %d -> %d", len(rep.Tasks), len(back.Tasks))
	}
	for i, want := range rep.Tasks {
		got := back.Tasks[i]
		if got.Arrival != want.Arrival || got.Deadline != want.Deadline || got.Class != want.Class {
			t.Fatalf("task %d: got (%v, %v, %q), want (%v, %v, %q)",
				i, got.Arrival, got.Deadline, got.Class, want.Arrival, want.Deadline, want.Class)
		}
		for j := range want.Subtasks {
			if got.StageDemand(j) != want.StageDemand(j) {
				t.Fatalf("task %d stage %d demand %v != %v", i, j, got.StageDemand(j), want.StageDemand(j))
			}
		}
	}
}

func TestTraceWriterValidation(t *testing.T) {
	mk := func() *TraceWriter {
		tw, err := NewTraceWriter(io.Discard, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tw
	}
	cases := []struct {
		name string
		fn   func(tw *TraceWriter) error
	}{
		{"wrong demand count", func(tw *TraceWriter) error { return tw.Write(0, 1, -1, []float64{1}) }},
		{"NaN arrival", func(tw *TraceWriter) error { return tw.Write(math.NaN(), 1, -1, []float64{1, 1}) }},
		{"zero deadline", func(tw *TraceWriter) error { return tw.Write(0, 0, -1, []float64{1, 1}) }},
		{"infinite deadline", func(tw *TraceWriter) error { return tw.Write(0, math.Inf(1), -1, []float64{1, 1}) }},
		{"negative demand", func(tw *TraceWriter) error { return tw.Write(0, 1, -1, []float64{1, -1}) }},
		{"class outside table", func(tw *TraceWriter) error { return tw.Write(0, 1, 0, []float64{1, 1}) }},
		{"time travel", func(tw *TraceWriter) error {
			if err := tw.Write(5, 1, -1, []float64{1, 1}); err != nil {
				return err
			}
			return tw.Write(4, 1, -1, []float64{1, 1})
		}},
	}
	for _, tc := range cases {
		tw := mk()
		if err := tc.fn(tw); err == nil {
			t.Errorf("%s: want error", tc.name)
		} else if tw.Close() == nil {
			t.Errorf("%s: error must stick through Close", tc.name)
		}
	}
	if _, err := NewTraceWriter(io.Discard, 0, nil); err == nil {
		t.Error("zero stages: want error")
	}
	if _, err := NewTraceWriter(io.Discard, 1, []string{"a", "a"}); err == nil {
		t.Error("duplicate classes: want error")
	}
	if _, err := NewTraceWriter(io.Discard, 1, make([]string, 256)); err == nil {
		t.Error("256 classes: want error")
	}
}

func TestTraceCountBackpatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewTraceWriter(f, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := tw.Write(float64(i), 10, -1, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	tr, err := OpenTrace(rf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 7 {
		t.Fatalf("backpatched count = %d, want 7", tr.Count())
	}
	var rec TraceRecord
	for {
		if err := tr.Next(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if tr.Records() != 7 {
		t.Fatalf("decoded %d records, want 7", tr.Records())
	}
}

func TestTraceTruncationDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, _ := NewTraceWriter(f, 1, nil)
	for i := 0; i < 3; i++ {
		if err := tw.Write(float64(i), 10, -1, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Drop the last record: header still declares 3.
	tr, err := OpenTrace(bytes.NewReader(data[:len(data)-25]))
	if err != nil {
		t.Fatal(err)
	}
	var rec TraceRecord
	var last error
	for {
		if last = tr.Next(&rec); last != nil {
			break
		}
	}
	if last == io.EOF || !strings.Contains(last.Error(), "truncated") {
		t.Fatalf("want truncation error, got %v", last)
	}
}

// truncationGolden is what the decoder reports for the sample trace
// cut at each byte length from the row's on: records decoded before the
// error, and the error ("" for a clean end). Captured from the decoder
// that copied each record out of its buffer with io.ReadFull; the
// second table is the same trace with its record count in the header.
var truncationGolden = [2][]struct {
	from, records int
	err           string
}{{
	{0, 0, "workload: reading trace header: EOF"},
	{1, 0, "workload: reading trace header: unexpected EOF"},
	{24, 0, "workload: reading trace class table: EOF"},
	{25, 0, "workload: reading trace class table: unexpected EOF"},
	{26, 0, "workload: reading trace class table: EOF"},
	{27, 0, "workload: reading trace class table: unexpected EOF"},
	{34, 0, "workload: reading trace class table: EOF"},
	{35, 0, "workload: reading trace class table: unexpected EOF"},
	{36, 0, "workload: reading trace class table: EOF"},
	{37, 0, "workload: reading trace class table: unexpected EOF"},
	{43, 0, ""},
	{44, 0, "workload: trace record 0 truncated: unexpected EOF"},
	{76, 1, ""},
	{77, 1, "workload: trace record 1 truncated: unexpected EOF"},
	{109, 2, ""},
	{110, 2, "workload: trace record 2 truncated: unexpected EOF"},
	{142, 3, ""},
}, {
	{0, 0, "workload: reading trace header: EOF"},
	{1, 0, "workload: reading trace header: unexpected EOF"},
	{24, 0, "workload: reading trace class table: EOF"},
	{25, 0, "workload: reading trace class table: unexpected EOF"},
	{26, 0, "workload: reading trace class table: EOF"},
	{27, 0, "workload: reading trace class table: unexpected EOF"},
	{34, 0, "workload: reading trace class table: EOF"},
	{35, 0, "workload: reading trace class table: unexpected EOF"},
	{36, 0, "workload: reading trace class table: EOF"},
	{37, 0, "workload: reading trace class table: unexpected EOF"},
	{43, 0, "workload: trace truncated: header declares 3 records, found 0"},
	{44, 0, "workload: trace record 0 truncated: unexpected EOF"},
	{76, 1, "workload: trace truncated: header declares 3 records, found 1"},
	{77, 1, "workload: trace record 1 truncated: unexpected EOF"},
	{109, 2, "workload: trace truncated: header declares 3 records, found 2"},
	{110, 2, "workload: trace record 2 truncated: unexpected EOF"},
	{142, 3, ""},
}}

// decodeAll decodes a whole trace, returning deep copies of the
// records before the first error and that error (nil at a clean end).
func decodeAll(r io.Reader) ([]TraceRecord, error) {
	tr, err := OpenTrace(r)
	if err != nil {
		return nil, err
	}
	var recs []TraceRecord
	var rec TraceRecord
	for {
		if err := tr.Next(&rec); err != nil {
			if err == io.EOF {
				err = nil
			}
			return recs, err
		}
		cp := rec
		cp.Demands = append([]float64(nil), rec.Demands...)
		recs = append(recs, cp)
	}
}

// TestTraceTruncationMatchesGolden cuts the sample trace at every byte
// length and reads it whole, through readers that return it all at
// once, one byte at a time, half of each request, and with the final
// data alongside EOF: every cut must yield the golden error and the
// first records of the whole trace.
func TestTraceTruncationMatchesGolden(t *testing.T) {
	_, data := sampleReplay(t)
	counted := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(counted[16:24], 3)
	want, err := decodeAll(bytes.NewReader(data))
	if err != nil || len(want) != 3 {
		t.Fatalf("whole trace: %d records, %v", len(want), err)
	}
	wrappers := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data+EOF": iotest.DataErrReader,
	}
	for v, trace := range [][]byte{data, counted} {
		golden := truncationGolden[v]
		if last := golden[len(golden)-1].from; last != len(trace) {
			t.Fatalf("golden ends at %d bytes, trace is %d", last, len(trace))
		}
		row := 0
		for cut := 0; cut <= len(trace); cut++ {
			if row+1 < len(golden) && golden[row+1].from <= cut {
				row++
			}
			g := golden[row]
			for name, wrap := range wrappers {
				recs, err := decodeAll(wrap(bytes.NewReader(trace[:cut])))
				if got := fmt.Sprint(err); (err == nil) != (g.err == "") || (err != nil && got != g.err) {
					t.Errorf("table %d, cut %d, %s reader: error %v, want %q", v, cut, name, err, g.err)
				}
				if len(recs) != g.records || (len(recs) > 0 && !reflect.DeepEqual(recs, want[:len(recs)])) {
					t.Errorf("table %d, cut %d, %s reader: records %+v, want %+v", v, cut, name, recs, want[:g.records])
				}
			}
		}
	}
}

// TestTraceWideRecordsRoundTrip round-trips a trace whose records
// (10,000 stages, 80 KB each) are wider than the default read buffer.
func TestTraceWideRecordsRoundTrip(t *testing.T) {
	const stages = 10000
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, stages, []string{"wide"})
	if err != nil {
		t.Fatal(err)
	}
	demands := make([]float64, stages)
	for i := 0; i < 3; i++ {
		for j := range demands {
			demands[j] = float64(i*stages+j) / 7
		}
		if err := tw.Write(float64(i), 10, i%2-1, demands); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, wrap := range []func(io.Reader) io.Reader{func(r io.Reader) io.Reader { return r }, iotest.HalfReader} {
		recs, err := decodeAll(wrap(bytes.NewReader(buf.Bytes())))
		if err != nil || len(recs) != 3 {
			t.Fatalf("decoded %d records, %v", len(recs), err)
		}
		for i, r := range recs {
			if r.Arrival != float64(i) || r.Deadline != 10 || r.Class != i%2-1 || len(r.Demands) != stages {
				t.Fatalf("record %d: arrival %v deadline %v class %d, %d demands", i, r.Arrival, r.Deadline, r.Class, len(r.Demands))
			}
			for j, c := range r.Demands {
				if c != float64(i*stages+j)/7 {
					t.Fatalf("record %d demand[%d] = %v", i, j, c)
				}
			}
		}
	}
}

func TestOpenTraceRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "FRTRACE", "not a trace at all........", "FRTRACE\x02" + strings.Repeat("\x00", 16)} {
		if _, err := OpenTrace(strings.NewReader(in)); err == nil {
			t.Errorf("OpenTrace(%q): want error", in)
		}
	}
}

func TestImportCSVMatchesParseReplay(t *testing.T) {
	// ImportCSV never buffers the file, so rows must arrive sorted.
	const sorted = "arrival,deadline,c1,c2\n0.1,8,0.5,0.5\n0.5,10,1,2\n2.0,12,3,1\n"
	var buf bytes.Buffer
	n, err := ImportCSV(strings.NewReader(sorted), &buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ParseReplay(strings.NewReader(sorted))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(rep.Tasks)) {
		t.Fatalf("imported %d records, ParseReplay found %d", n, len(rep.Tasks))
	}
	back, err := readTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rep.Tasks {
		got := back.Tasks[i]
		if got.Arrival != want.Arrival || got.Deadline != want.Deadline {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestImportCSVRejectsUnordered(t *testing.T) {
	if _, err := ImportCSV(strings.NewReader("5,10,1\n1,10,1\n"), io.Discard); err == nil {
		t.Fatal("out-of-order CSV import must fail")
	}
}

// collectReplayed drives a replayer to completion and returns deep
// copies of the offered tasks: the replayer rewrites one task value,
// subtasks included, for every record.
func collectReplayed(t *testing.T, data []byte, opts ReplayOptions) []task.Task {
	t.Helper()
	tr, err := OpenTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	var got []task.Task
	rp, err := NewReplayer(sim, tr, opts, func(tk *task.Task) {
		c := *tk
		c.Subtasks = append([]task.Subtask(nil), tk.Subtasks...)
		got = append(got, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if rp.Err() != nil {
		t.Fatal(rp.Err())
	}
	return got
}

// sampleReplay parses sampleTrace, labels its tasks with classes (one
// left unlabelled) and records it as a binary trace.
func sampleReplay(t *testing.T) (*Replay, []byte) {
	t.Helper()
	rep, err := ParseReplay(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []string{"tracking", "", "control"} {
		rep.Tasks[i].Class = c
	}
	var buf bytes.Buffer
	if _, err := writeTrace(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

func traceBytes(t *testing.T) []byte {
	t.Helper()
	_, data := sampleReplay(t)
	return data
}

func TestReplayerPlaysRecordedTimes(t *testing.T) {
	rep, data := sampleReplay(t)
	got := collectReplayed(t, data, ReplayOptions{})
	if len(got) != len(rep.Tasks) {
		t.Fatalf("replayed %d tasks, want %d", len(got), len(rep.Tasks))
	}
	for i, want := range rep.Tasks {
		if got[i].Arrival != want.Arrival || got[i].Deadline != want.Deadline {
			t.Fatalf("task %d: got (%v, %v), want (%v, %v)",
				i, got[i].Arrival, got[i].Deadline, want.Arrival, want.Deadline)
		}
		if got[i].ID != task.ID(i) {
			t.Fatalf("task %d has ID %d", i, got[i].ID)
		}
		if got[i].Class != want.Class {
			t.Fatalf("task %d: class %q, want %q", i, got[i].Class, want.Class)
		}
		if len(got[i].Subtasks) != len(want.Subtasks) {
			t.Fatalf("task %d: %d subtasks, want %d", i, len(got[i].Subtasks), len(want.Subtasks))
		}
		for j, sub := range want.Subtasks {
			if g := got[i].Subtasks[j]; g.Demand != sub.Demand || g.Optional != 0 || g.Segments != nil {
				t.Fatalf("task %d stage %d: subtask %+v, want demand %v", i, j, got[i].Subtasks[j], sub.Demand)
			}
		}
	}
}

func TestReplayerTimeCompress(t *testing.T) {
	data := traceBytes(t)
	base := collectReplayed(t, data, ReplayOptions{})
	fast := collectReplayed(t, data, ReplayOptions{TimeCompress: 2})
	for i := range base {
		if want := base[i].Arrival / 2; math.Abs(fast[i].Arrival-want) > 1e-12 {
			t.Fatalf("task %d arrival %v, want %v", i, fast[i].Arrival, want)
		}
		if want := base[i].Deadline / 2; math.Abs(fast[i].Deadline-want) > 1e-12 {
			t.Fatalf("task %d deadline %v, want %v (compression must tighten deadlines)", i, fast[i].Deadline, want)
		}
	}
}

func TestReplayerRateMultiplier(t *testing.T) {
	data := traceBytes(t)
	base := collectReplayed(t, data, ReplayOptions{})
	dense := collectReplayed(t, data, ReplayOptions{RateMultiplier: 4})
	for i := range base {
		if want := base[i].Arrival / 4; math.Abs(dense[i].Arrival-want) > 1e-12 {
			t.Fatalf("task %d arrival %v, want %v", i, dense[i].Arrival, want)
		}
		if dense[i].Deadline != base[i].Deadline {
			t.Fatalf("task %d deadline changed: rate multiplier must not touch deadlines", i)
		}
	}
}

func TestReplayerLimitAndFirstID(t *testing.T) {
	data := traceBytes(t)
	got := collectReplayed(t, data, ReplayOptions{Limit: 2, FirstID: 100})
	if len(got) != 2 {
		t.Fatalf("replayed %d tasks, want 2", len(got))
	}
	if got[0].ID != 100 || got[1].ID != 101 {
		t.Fatalf("IDs %d, %d, want 100, 101", got[0].ID, got[1].ID)
	}
}

// TestReplayerReuseTask pins the replayer's contract: one task value
// for every record, whatever ReuseTask says, rewritten whole before each
// offer, so what a sink writes into it never reaches the next record.
func TestReplayerReuseTask(t *testing.T) {
	if n := reflect.TypeOf(task.Task{}).NumField(); n != 8 {
		t.Fatalf("task.Task has %d fields: make the careless sink below write the new ones", n)
	}
	rep, data := sampleReplay(t)
	for _, reuse := range []bool{false, true} {
		tr, err := OpenTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		sim := des.New()
		var seen []*task.Task
		var got []task.Task
		rp, err := NewReplayer(sim, tr, ReplayOptions{ReuseTask: reuse}, func(tk *task.Task) {
			seen = append(seen, tk)
			c := *tk
			c.Subtasks = append([]task.Subtask(nil), tk.Subtasks...)
			got = append(got, c)
			// A careless sink writes every field: none of it may leak into
			// the next record.
			tk.Priority, tk.Importance, tk.Graph = 7, 3, task.NewGraph()
			tk.Subtasks[0].Optional, tk.Subtasks[1].Segments = 0.1, []task.Segment{{Duration: 1}}
			tk.ID, tk.Arrival, tk.Deadline, tk.Class, tk.Subtasks = -1, -1, -1, "stale", tk.Subtasks[:1]
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Start(); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		if rp.Replayed() != uint64(len(rep.Tasks)) {
			t.Fatalf("ReuseTask=%v: replayed %d, want %d", reuse, rp.Replayed(), len(rep.Tasks))
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] != seen[0] {
				t.Fatalf("ReuseTask=%v: record %d offered a second task value", reuse, i)
			}
		}
		for i, want := range rep.Tasks {
			g := got[i]
			if g.ID != task.ID(i) || g.Arrival != want.Arrival || g.Deadline != want.Deadline || g.Class != want.Class ||
				len(g.Subtasks) != 2 || g.Priority != 0 || g.Importance != 0 || g.Graph != nil {
				t.Fatalf("ReuseTask=%v: record %d offered %+v", reuse, i, g)
			}
			if g.Subtasks[0].Optional != 0 || g.Subtasks[1].Segments != nil {
				t.Fatalf("ReuseTask=%v: record %d inherited the previous sink's subtask writes: %+v", reuse, i, g.Subtasks)
			}
		}
	}
}

func TestReplayerKnobValidation(t *testing.T) {
	data := traceBytes(t)
	for _, opts := range []ReplayOptions{
		{TimeCompress: -1},
		{RateMultiplier: math.Inf(1)},
		{TimeCompress: math.NaN()},
	} {
		tr, err := OpenTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewReplayer(des.New(), tr, opts, func(*task.Task) {}); err == nil {
			t.Errorf("opts %+v: want error", opts)
		}
	}
}

func TestReplayerEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(des.New(), tr, ReplayOptions{}, func(*task.Task) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Start(); err != io.EOF {
		t.Fatalf("Start on empty trace = %v, want io.EOF", err)
	}
}
