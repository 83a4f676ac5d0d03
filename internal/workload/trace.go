package workload

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Binary trace format v1 ("FRTRACE"), little-endian throughout:
//
//	offset  size  field
//	0       7     magic "FRTRACE"
//	7       1     version (1)
//	8       2     stages     uint16 (≥ 1)
//	10      2     classCount uint16
//	12      4     reserved (zero)
//	16      8     count      uint64 (0 = unknown; backpatched when the
//	              writer's sink is seekable)
//	24      —     class table: classCount × (uint16 length + UTF-8 bytes)
//
// followed by count fixed-size records:
//
//	arrival  float64   absolute arrival time ≥ 0, nondecreasing across records
//	deadline float64   relative end-to-end deadline, positive and finite
//	class    uint8     index into the class table; 0xFF = unclassed
//	demands  stages × float64   per-stage computation times, ≥ 0, finite
//
// The fixed record size (17 + 8·stages bytes) makes the format streamable
// in both directions with O(1) memory and makes the record count of an
// unlabelled trace recoverable from the file size.

// TraceMagic is the v1 binary trace file magic.
const TraceMagic = "FRTRACE"

// TraceVersion is the format version this package reads and writes.
const TraceVersion = 1

// TraceNoClass is the record class byte meaning "no class".
const TraceNoClass = 0xFF

const traceHeaderSize = 24

// maxTraceClasses is the densest class table the record's uint8 class
// field can address (0xFF is reserved).
const maxTraceClasses = 255

// TraceWriter streams workload records into the v1 binary format. It
// buffers internally; Close flushes and, when the underlying writer is
// an io.WriteSeeker (e.g. *os.File), backpatches the record count into
// the header.
type TraceWriter struct {
	w       *bufio.Writer
	raw     io.Writer
	stages  int
	classes map[string]int
	count   uint64
	lastAt  float64
	rec     []byte
	err     error
}

// NewTraceWriter writes a v1 header for the given stage count and class
// table and returns a writer for the records. classes may be nil for an
// unclassed trace; at most 255 classes are addressable.
func NewTraceWriter(w io.Writer, stages int, classes []string) (*TraceWriter, error) {
	if stages < 1 || stages > math.MaxUint16 {
		return nil, fmt.Errorf("workload: trace stages %d out of range [1, %d]", stages, math.MaxUint16)
	}
	if len(classes) > maxTraceClasses {
		return nil, fmt.Errorf("workload: %d trace classes exceed the format's %d", len(classes), maxTraceClasses)
	}
	tw := &TraceWriter{
		w:       bufio.NewWriterSize(w, 1<<16),
		raw:     w,
		stages:  stages,
		classes: make(map[string]int, len(classes)),
		rec:     make([]byte, 17+8*stages),
	}
	var hdr [traceHeaderSize]byte
	copy(hdr[:7], TraceMagic)
	hdr[7] = TraceVersion
	binary.LittleEndian.PutUint16(hdr[8:10], uint16(stages))
	binary.LittleEndian.PutUint16(hdr[10:12], uint16(len(classes)))
	// hdr[12:16] reserved; hdr[16:24] count, backpatched at Close.
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("workload: writing trace header: %w", err)
	}
	var lb [2]byte
	for i, c := range classes {
		if _, dup := tw.classes[c]; dup {
			return nil, fmt.Errorf("workload: duplicate trace class %q", c)
		}
		if len(c) > math.MaxUint16 {
			return nil, fmt.Errorf("workload: trace class name %d bytes long", len(c))
		}
		tw.classes[c] = i
		binary.LittleEndian.PutUint16(lb[:], uint16(len(c)))
		if _, err := tw.w.Write(lb[:]); err != nil {
			return nil, err
		}
		if _, err := tw.w.WriteString(c); err != nil {
			return nil, err
		}
	}
	return tw, nil
}

// Stages returns the per-record demand column count.
func (tw *TraceWriter) Stages() int { return tw.stages }

// Count returns the number of records written so far.
func (tw *TraceWriter) Count() uint64 { return tw.count }

// Write appends one record. class is an index into the writer's class
// table, or -1 for unclassed. Arrivals must be finite, at least 0 and
// nondecreasing, deadlines positive and finite, demands non-negative and
// finite, with exactly the header's stage count. An error names the
// record by its 0-based index and sticks: later calls return it.
func (tw *TraceWriter) Write(arrival, deadline float64, class int, demands []float64) error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.write(arrival, deadline, class, demands); err != nil {
		return tw.fail(fmt.Errorf("workload: trace record %d: %w", tw.count, err))
	}
	return nil
}

// write checks and appends one record; its errors name no record, so
// Write and ImportCSV can each say where the record came from.
func (tw *TraceWriter) write(arrival, deadline float64, class int, demands []float64) error {
	if len(demands) != tw.stages {
		return fmt.Errorf("%d demands, want %d", len(demands), tw.stages)
	}
	if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
		return fmt.Errorf("non-finite arrival %v", arrival)
	}
	if arrival < tw.lastAt {
		if arrival < 0 {
			return fmt.Errorf("negative arrival %v (arrivals are absolute times ≥ 0)", arrival)
		}
		return fmt.Errorf("arrival %v before previous %v (records must be time-ordered)", arrival, tw.lastAt)
	}
	if !(deadline > 0) || math.IsInf(deadline, 0) {
		return fmt.Errorf("deadline %v must be positive and finite", deadline)
	}
	if class != -1 && (class < 0 || class >= len(tw.classes)) {
		return fmt.Errorf("class %d outside table of %d", class, len(tw.classes))
	}
	b := tw.rec
	binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(arrival))
	binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(deadline))
	if class == -1 {
		b[16] = TraceNoClass
	} else {
		b[16] = byte(class)
	}
	for j, c := range demands {
		if !(c >= 0) || math.IsInf(c, 0) {
			return fmt.Errorf("demand[%d] = %v must be non-negative and finite", j, c)
		}
		binary.LittleEndian.PutUint64(b[17+8*j:], math.Float64bits(c))
	}
	if _, err := tw.w.Write(b); err != nil {
		return fmt.Errorf("writing: %w", err)
	}
	tw.lastAt = arrival
	tw.count++
	return nil
}

func (tw *TraceWriter) fail(err error) error {
	tw.err = err
	return err
}

// Close flushes buffered records and backpatches the header's record
// count when the sink supports seeking. It does not close the sink.
func (tw *TraceWriter) Close() error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.w.Flush(); err != nil {
		return tw.fail(fmt.Errorf("workload: flushing trace: %w", err))
	}
	ws, ok := tw.raw.(io.WriteSeeker)
	if !ok {
		return nil // count stays 0 in the header; readers fall back to EOF
	}
	var cb [8]byte
	binary.LittleEndian.PutUint64(cb[:], tw.count)
	if _, err := ws.Seek(16, io.SeekStart); err != nil {
		return tw.fail(err)
	}
	if _, err := ws.Write(cb[:]); err != nil {
		return tw.fail(err)
	}
	if _, err := ws.Seek(0, io.SeekEnd); err != nil {
		return tw.fail(err)
	}
	return nil
}

// TraceRecord is one decoded trace record. Demands is reused across
// Next calls; copy it to retain.
type TraceRecord struct {
	Arrival  float64
	Deadline float64
	Class    int // index into Classes(), or -1
	Demands  []float64
}

// TraceReader streams records from a v1 binary trace with O(1) memory,
// decoding each in place from a read buffer the header sizes to fit one.
type TraceReader struct {
	r       *bufio.Reader
	stages  int
	recSize int // 17 + 8·stages bytes
	classes []string
	count   uint64 // header count; 0 when unknown
	read    uint64
	lastAt  float64
}

// OpenTrace validates the header and class table of a v1 binary trace
// and positions the reader at the first record.
func OpenTrace(r io.Reader) (*TraceReader, error) {
	var hdr [traceHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if string(hdr[:7]) != TraceMagic {
		return nil, fmt.Errorf("workload: not a trace file (magic %q)", hdr[:7])
	}
	if hdr[7] != TraceVersion {
		return nil, fmt.Errorf("workload: trace version %d, this build reads %d", hdr[7], TraceVersion)
	}
	stages := int(binary.LittleEndian.Uint16(hdr[8:10]))
	if stages < 1 {
		return nil, fmt.Errorf("workload: trace declares %d stages", stages)
	}
	nclasses := int(binary.LittleEndian.Uint16(hdr[10:12]))
	if nclasses > maxTraceClasses {
		return nil, fmt.Errorf("workload: trace declares %d classes, format max %d", nclasses, maxTraceClasses)
	}
	count := binary.LittleEndian.Uint64(hdr[16:24])
	recSize := 17 + 8*stages
	br := bufio.NewReaderSize(r, max(1<<16, recSize)) // Next peeks a whole record
	tr := &TraceReader{
		r:       br,
		stages:  stages,
		recSize: recSize,
		count:   count,
	}
	var lb [2]byte
	for i := 0; i < nclasses; i++ {
		if _, err := io.ReadFull(br, lb[:]); err != nil {
			return nil, fmt.Errorf("workload: reading trace class table: %w", err)
		}
		name := make([]byte, binary.LittleEndian.Uint16(lb[:]))
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("workload: reading trace class table: %w", err)
		}
		tr.classes = append(tr.classes, string(name))
	}
	return tr, nil
}

// Stages returns the per-record demand column count.
func (tr *TraceReader) Stages() int { return tr.stages }

// Classes returns the trace's class table (aliased; do not mutate).
func (tr *TraceReader) Classes() []string { return tr.classes }

// Count returns the header's record count, or 0 when the trace was
// written to a non-seekable sink and the count is unknown.
func (tr *TraceReader) Count() uint64 { return tr.count }

// Records returns the number of records decoded so far.
func (tr *TraceReader) Records() uint64 { return tr.read }

// Next decodes the next record into rec, reusing rec.Demands. It returns
// io.EOF (and leaves rec unchanged) at a clean end of trace, and a
// descriptive error on truncation or corruption: class out of range,
// non-positive deadline, negative demand, or a negative or
// time-travelling arrival.
func (tr *TraceReader) Next(rec *TraceRecord) error {
	b, err := tr.r.Peek(tr.recSize)
	if err != nil {
		if err == io.EOF && len(b) == 0 {
			if tr.count != 0 && tr.read != tr.count {
				return fmt.Errorf("workload: trace truncated: header declares %d records, found %d", tr.count, tr.read)
			}
			return io.EOF
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a partial record, as io.ReadFull reports it
		}
		return fmt.Errorf("workload: trace record %d truncated: %w", tr.read, err)
	}
	// The record is consumed whether or not it decodes. Discarding bytes
	// Peek buffered reads nothing, so it cannot fail and b stays valid.
	tr.r.Discard(tr.recSize)
	arrival := math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))
	deadline := math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
	classByte := b[16]
	if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
		return fmt.Errorf("workload: trace record %d: non-finite arrival", tr.read)
	}
	if arrival < tr.lastAt { // lastAt starts at 0: arrivals are absolute times
		if arrival < 0 {
			return fmt.Errorf("workload: trace record %d: negative arrival %v", tr.read, arrival)
		}
		return fmt.Errorf("workload: trace record %d: arrival %v before previous %v", tr.read, arrival, tr.lastAt)
	}
	if !(deadline > 0) || math.IsInf(deadline, 0) {
		return fmt.Errorf("workload: trace record %d: invalid deadline %v", tr.read, deadline)
	}
	class := -1
	if classByte != TraceNoClass {
		if int(classByte) >= len(tr.classes) {
			return fmt.Errorf("workload: trace record %d: class %d outside table of %d", tr.read, classByte, len(tr.classes))
		}
		class = int(classByte)
	}
	if cap(rec.Demands) < tr.stages {
		rec.Demands = make([]float64, tr.stages)
	}
	rec.Demands = rec.Demands[:tr.stages]
	for j := 0; j < tr.stages; j++ {
		c := math.Float64frombits(binary.LittleEndian.Uint64(b[17+8*j:]))
		if !(c >= 0) || math.IsInf(c, 0) {
			return fmt.Errorf("workload: trace record %d: invalid demand[%d] %v", tr.read, j, c)
		}
		rec.Demands[j] = c
	}
	rec.Arrival, rec.Deadline, rec.Class = arrival, deadline, class
	tr.lastAt = arrival
	tr.read++
	return nil
}

// ImportCSV streams a CSV trace into the binary format with O(row)
// memory. Each row is arrival,deadline,c1,...,cN; a header row is
// permitted (detected by a non-numeric first field), and every row must
// carry the same number of demand columns. Rows must already be ordered
// by arrival: the importer never buffers the file to sort it, and the
// writer refuses an arrival before the previous one. Every error names
// the offending line of the file (1-based, a header counted). It returns
// the record count written.
func ImportCSV(r io.Reader, w io.Writer) (uint64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for better errors
	cr.ReuseRecord = true
	var tw *TraceWriter
	var demands []float64
	for first := true; ; first = false {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return 0, fmt.Errorf("workload: trace line %d: %w", pe.Line, pe.Err)
		}
		if err != nil {
			return 0, fmt.Errorf("workload: reading trace: %w", err)
		}
		line, _ := cr.FieldPos(0)
		arrival, err := strconv.ParseFloat(row[0], 64)
		if err != nil && first {
			continue // header
		}
		if len(row) < 3 {
			return 0, fmt.Errorf("workload: trace line %d has %d fields, need arrival,deadline,demands...", line, len(row))
		}
		if tw != nil && len(row)-2 != tw.stages {
			return 0, fmt.Errorf("workload: trace line %d has %d demand columns, want %d", line, len(row)-2, tw.stages)
		}
		if err != nil {
			return 0, fmt.Errorf("workload: trace line %d field 1: %w", line, err)
		}
		deadline, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return 0, fmt.Errorf("workload: trace line %d field 2: %w", line, err)
		}
		demands = demands[:0]
		for k, cell := range row[2:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return 0, fmt.Errorf("workload: trace line %d field %d: %w", line, k+3, err)
			}
			demands = append(demands, v)
		}
		if tw == nil {
			if tw, err = NewTraceWriter(w, len(demands), nil); err != nil {
				return 0, err
			}
		}
		if err := tw.write(arrival, deadline, -1, demands); err != nil {
			return 0, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
	}
	if tw == nil {
		return 0, fmt.Errorf("workload: empty trace")
	}
	if err := tw.Close(); err != nil {
		return 0, err
	}
	return tw.Count(), nil
}
