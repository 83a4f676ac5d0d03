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

// sampleTrace is a CSV trace whose rows are not in arrival order, so
// the importer refuses it; sampleTasks holds its rows sorted.
const sampleTrace = `arrival,deadline,c1,c2
0.5,10,1,2
0.1,8,0.5,0.5
2.0,12,3,1
`

// sampleTasks returns sampleTrace's rows in arrival order, with IDs by
// position.
func sampleTasks() []*task.Task {
	return []*task.Task{
		task.Chain(0, 0.1, 8, 0.5, 0.5),
		task.Chain(1, 0.5, 10, 1, 2),
		task.Chain(2, 2.0, 12, 3, 1),
	}
}

// writeTrace saves tasks in the binary trace format, deriving the class
// table from their Class labels in first-seen order. It returns the
// record count written.
func writeTrace(w io.Writer, tasks []*task.Task) (uint64, error) {
	var classes []string
	class := map[string]int{}
	for _, t := range tasks {
		if _, seen := class[t.Class]; t.Class != "" && !seen {
			class[t.Class] = len(classes)
			classes = append(classes, t.Class)
		}
	}
	tw, err := NewTraceWriter(w, len(tasks[0].Subtasks), classes)
	if err != nil {
		return 0, err
	}
	for _, t := range tasks {
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

// readTrace materializes a binary trace as tasks (IDs assigned by
// position, classes resolved from the table).
func readTrace(r io.Reader) ([]*task.Task, error) {
	tr, err := OpenTrace(r)
	if err != nil {
		return nil, err
	}
	var tasks []*task.Task
	var rec TraceRecord
	for {
		if err := tr.Next(&rec); err != nil {
			if err == io.EOF {
				return tasks, nil
			}
			return nil, err
		}
		t := task.Chain(task.ID(len(tasks)), rec.Arrival, rec.Deadline, rec.Demands...)
		if rec.Class >= 0 {
			t.Class = tr.classes[rec.Class]
		}
		tasks = append(tasks, t)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tasks := sampleTasks()
	tasks[0].Class = "gold"
	tasks[1].Class = "bronze"

	var buf bytes.Buffer
	n, err := writeTrace(&buf, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(tasks)) {
		t.Fatalf("wrote %d records for %d tasks", n, len(tasks))
	}
	back, err := readTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tasks) {
		t.Fatalf("round trip changed the tasks:\n got %+v\nwant %+v", back, tasks)
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
		{"negative arrival", func(tw *TraceWriter) error { return tw.Write(-5, 1, -1, []float64{1, 1}) }},
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

// TestTraceReaderRejectsNegativeArrival patches a record's arrival to
// -5, which the writer refuses to emit: arrivals are absolute times, so
// the reader refuses it too rather than let a replayer clamp it to 0.
func TestTraceReaderRejectsNegativeArrival(t *testing.T) {
	var b bytes.Buffer
	tw, err := NewTraceWriter(&b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(0, 1, -1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	data := b.Bytes()
	binary.LittleEndian.PutUint64(data[traceHeaderSize:], math.Float64bits(-5))
	tr, err := OpenTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var rec TraceRecord
	if err := tr.Next(&rec); err == nil || !strings.Contains(err.Error(), "record 0: negative arrival -5") {
		t.Fatalf("Next = %v, want a negative-arrival error", err)
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

// sortedCSV holds sampleTasks' rows in arrival order, under a header:
// ImportCSV never buffers the file, so rows must arrive sorted.
const sortedCSV = "arrival,deadline,c1,c2\n0.1,8,0.5,0.5\n0.5,10,1,2\n2.0,12,3,1\n"

// TestImportCSV checks the imported trace's header and its first and
// last records.
func TestImportCSV(t *testing.T) {
	var buf bytes.Buffer
	n, err := ImportCSV(strings.NewReader(sortedCSV), &buf)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || tr.Stages() != 2 {
		t.Fatalf("imported %d records of %d stages", n, tr.Stages())
	}
	var rec TraceRecord
	if err := tr.Next(&rec); err != nil || rec.Arrival != 0.1 || rec.Deadline != 8 {
		t.Fatalf("first record %+v, %v", rec, err)
	}
	var last TraceRecord
	for {
		last.Arrival, last.Demands = rec.Arrival, append(last.Demands[:0], rec.Demands...)
		if err := tr.Next(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if tr.Records() != 3 || last.Arrival != 2.0 || last.Demands[0] != 3 || last.Demands[1] != 1 {
		t.Fatalf("decoded %d records, last %+v", tr.Records(), last)
	}
}

// TestImportCSVMatchesRows checks every imported record against the
// literal rows: one record per row, in order, as written.
func TestImportCSVMatchesRows(t *testing.T) {
	var buf bytes.Buffer
	n, err := ImportCSV(strings.NewReader(sortedCSV), &buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := readTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := sampleTasks(); n != uint64(len(want)) || !reflect.DeepEqual(back, want) {
		t.Fatalf("imported %d records %+v, want %+v", n, back, want)
	}
}

func TestImportCSVWithoutHeader(t *testing.T) {
	var buf bytes.Buffer
	if n, err := ImportCSV(strings.NewReader("1,5,0.5\n2,5,0.5\n"), &buf); err != nil || n != 2 {
		t.Fatalf("imported %d records, %v", n, err)
	}
	back, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := []*task.Task{task.Chain(0, 1, 5, 0.5), task.Chain(1, 2, 5, 0.5)}; !reflect.DeepEqual(back, want) {
		t.Fatalf("imported %+v, want %+v", back, want)
	}
}

// TestImportCSVErrors checks that ImportCSV refuses each malformed file
// and names the bad line: 1-based, a header line counted, whether the
// fault is in the row's syntax, a value or the arrival order.
func TestImportCSVErrors(t *testing.T) {
	tests := []struct {
		name, trace, want string
	}{
		{"empty", "", "empty trace"},
		{"header only", "arrival,deadline,c1\n", "empty trace"},
		{"too few fields", "1,5\n", "line 1 has 2 fields"},
		{"ragged demands", "1,5,1\n2,5,1,2\n", "line 2 has 2 demand columns"},
		{"bad number", "1,5,xyz\n", "line 1 field 3"},
		{"zero deadline", "1,0,1\n", "line 1: deadline 0 must be positive"},
		{"negative demand", "1,5,-1\n", "line 1: demand[0] = -1"},
		{"negative arrival", "-5,5,1\n1,5,1\n", "line 1: negative arrival -5"},
		{"headed syntax", "arrival,deadline,c1\n1,5,1\n2,x,1\n", "line 3 field 2"},
		{"headed value", "arrival,deadline,c1\n1,5,1\n2,-1,1\n", "line 3: deadline -1"},
		{"headed order", "arrival,deadline,c1\n1,5,1\n3,5,1\n2,5,1\n", "line 4: arrival 2 before previous 3"},
		{"headless syntax", "1,5,1\n2,5,\"1\n", "line 2"},
		{"headless value", "1,5,1\n2,5,1\n3,+Inf,1\n", "line 3: deadline +Inf"},
		{"headless order", "5,10,1\n1,10,1\n", "line 2: arrival 1 before previous 5"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ImportCSV(strings.NewReader(tt.trace), io.Discard)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %v, want one containing %q", err, tt.want)
			}
		})
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

// sampleReplay labels sampleTasks with classes (one left unlabelled)
// and records them as a binary trace.
func sampleReplay(t *testing.T) ([]*task.Task, []byte) {
	t.Helper()
	tasks := sampleTasks()
	for i, c := range []string{"tracking", "", "control"} {
		tasks[i].Class = c
	}
	var buf bytes.Buffer
	if _, err := writeTrace(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	return tasks, buf.Bytes()
}

func traceBytes(t *testing.T) []byte {
	t.Helper()
	_, data := sampleReplay(t)
	return data
}

// TestReplaySchedule pins when the replayer offers each record: at its
// recorded time, in order, and after every event already scheduled for
// that time when the arrival was armed. An event scheduled before Start
// for the second arrival's time runs first; one scheduled after Start
// for the first arrival's time runs after it.
func TestReplaySchedule(t *testing.T) {
	tr, err := OpenTrace(bytes.NewReader(traceBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	var order []string
	rp, err := NewReplayer(sim, tr, ReplayOptions{}, func(tk *task.Task) {
		order = append(order, fmt.Sprint("arrival ", tk.Arrival))
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.At(0.5, func() { order = append(order, "event 0.5") })
	if err := rp.Start(); err != nil {
		t.Fatal(err)
	}
	sim.At(0.1, func() { order = append(order, "event 0.1") })
	sim.Run()
	want := []string{"arrival 0.1", "event 0.1", "event 0.5", "arrival 0.5", "arrival 2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %q, want %q", order, want)
	}
}

// TestReplayRoundTrip records a generated workload as a trace and
// replays it: every task comes back as generated, in order.
func TestReplayRoundTrip(t *testing.T) {
	spec := PipelineSpec{Stages: 2, Load: 1, MeanDemand: 1, Resolution: 20}
	sim := des.New()
	var generated []*task.Task
	NewSource(sim, spec, 5, 100, func(tk *task.Task) { generated = append(generated, tk) }).Start()
	sim.Run()
	if len(generated) == 0 {
		t.Fatal("nothing generated")
	}
	var buf bytes.Buffer
	if _, err := writeTrace(&buf, generated); err != nil {
		t.Fatal(err)
	}
	got := collectReplayed(t, buf.Bytes(), ReplayOptions{})
	if len(got) != len(generated) {
		t.Fatalf("replayed %d tasks, generated %d", len(got), len(generated))
	}
	for i, want := range generated {
		g := got[i]
		if g.Arrival != want.Arrival || g.Deadline != want.Deadline || g.StageDemand(0) != want.StageDemand(0) || g.StageDemand(1) != want.StageDemand(1) {
			t.Fatalf("task %d: replayed %+v, generated %+v", i, g, *want)
		}
	}
}

func TestReplayerPlaysRecordedTimes(t *testing.T) {
	tasks, data := sampleReplay(t)
	got := collectReplayed(t, data, ReplayOptions{})
	if len(got) != len(tasks) {
		t.Fatalf("replayed %d tasks, want %d", len(got), len(tasks))
	}
	for i, want := range tasks {
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
	tasks, data := sampleReplay(t)
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
		if rp.Replayed() != uint64(len(tasks)) {
			t.Fatalf("ReuseTask=%v: replayed %d, want %d", reuse, rp.Replayed(), len(tasks))
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] != seen[0] {
				t.Fatalf("ReuseTask=%v: record %d offered a second task value", reuse, i)
			}
		}
		for i, want := range tasks {
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
