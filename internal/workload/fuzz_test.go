package workload

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// FuzzTraceReader: arbitrary bytes must never panic the binary trace
// decoder; any input that decodes fully must survive a rewrite/redecode
// round trip byte-identically (the format has one encoding per record).
func FuzzTraceReader(f *testing.F) {
	valid := func(build func(tw *TraceWriter)) []byte {
		var b bytes.Buffer
		tw, err := NewTraceWriter(&b, 2, []string{"gold", "bronze"})
		if err != nil {
			f.Fatal(err)
		}
		build(tw)
		if err := tw.Close(); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(valid(func(tw *TraceWriter) {}))
	f.Add(valid(func(tw *TraceWriter) {
		tw.Write(0.5, 10, 0, []float64{1, 2})
		tw.Write(1.5, 8, -1, []float64{0.5, 0.5})
	}))
	negative := valid(func(tw *TraceWriter) { tw.Write(0, 10, 0, []float64{1, 2}) })
	binary.LittleEndian.PutUint64(negative[traceHeaderSize+len("gold")+len("bronze")+4:], math.Float64bits(-5))
	f.Add(negative)
	f.Add([]byte(TraceMagic))
	f.Add([]byte("FRTRACE\x01\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, input []byte) {
		tr, err := OpenTrace(bytes.NewReader(input))
		if err != nil {
			return
		}
		var rec TraceRecord
		var recs []TraceRecord
		for {
			if err := tr.Next(&rec); err != nil {
				if err != io.EOF {
					return // corrupt mid-stream: rejecting is correct
				}
				break
			}
			cp := rec
			cp.Demands = append([]float64(nil), rec.Demands...)
			recs = append(recs, cp)
		}
		// Fully decoded: re-encode and decode again; records must match.
		var out bytes.Buffer
		tw, err := NewTraceWriter(&out, tr.Stages(), tr.Classes())
		if err != nil {
			t.Fatalf("rebuilding writer from decoded header: %v", err)
		}
		for _, r := range recs {
			if err := tw.Write(r.Arrival, r.Deadline, r.Class, r.Demands); err != nil {
				t.Fatalf("re-encoding decoded record: %v", err)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		tr2, err := OpenTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reopening own output: %v", err)
		}
		for i := range recs {
			if err := tr2.Next(&rec); err != nil {
				t.Fatalf("redecoding record %d: %v", i, err)
			}
			if rec.Arrival != recs[i].Arrival || rec.Deadline != recs[i].Deadline || rec.Class != recs[i].Class {
				t.Fatalf("record %d changed across round trip", i)
			}
		}
		if err := tr2.Next(&rec); err != io.EOF {
			t.Fatalf("round trip grew the trace: %v", err)
		}
	})
}

// FuzzImportCSV: arbitrary input must never panic the CSV importer; any
// CSV that imports must open as a trace holding exactly the reported
// record count, and writing those records back through a TraceWriter
// must reproduce the imported bytes.
func FuzzImportCSV(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("arrival,deadline,c1\n1,2,3\n")
	f.Add("1,2,3\n4,5,6\n")
	f.Add(",,,\n")
	f.Add("a,b,c\n1,-2,3\n")
	f.Add("1e308,1e308,1e308\n")
	f.Fuzz(func(t *testing.T, input string) {
		var imported bytes.Buffer
		n, err := ImportCSV(strings.NewReader(input), &imported)
		if err != nil {
			return
		}
		tr, err := OpenTrace(bytes.NewReader(imported.Bytes()))
		if err != nil {
			t.Fatalf("opening the imported trace: %v", err)
		}
		var out bytes.Buffer
		tw, err := NewTraceWriter(&out, tr.Stages(), tr.Classes())
		if err != nil {
			t.Fatal(err)
		}
		var rec TraceRecord
		for err = tr.Next(&rec); err == nil; err = tr.Next(&rec) {
			if err := tw.Write(rec.Arrival, rec.Deadline, rec.Class, rec.Demands); err != nil {
				t.Fatalf("rewriting record %d: %v", tr.Records()-1, err)
			}
		}
		if err != io.EOF {
			t.Fatalf("decoding the imported trace: %v", err)
		}
		if tr.Records() != n {
			t.Fatalf("imported %d records, decoded %d", n, tr.Records())
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), imported.Bytes()) {
			t.Fatal("rewriting the imported records changed the trace")
		}
	})
}
