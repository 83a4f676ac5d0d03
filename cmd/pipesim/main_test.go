package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens in testdata were recorded while the pipeline's measurement
// window still kept the P² percentiles itself, and replay.golden while
// -replay still filed every arrival at start-up; the current code must
// print the same bytes. replay.csv is `pipesim -horizon 300 -warmup 30`'s
// workload as CSV. In grid.csv the second arrival ties with the first
// task's completion and idle reset at 5 and runs after them, so both
// tasks are accepted.
var goldenRuns = []struct {
	name string
	args string
}{
	{"default", ""},
	{"approx", "-admission approx -resolution 10 -horizon 2000"},
	{"maxwait", "-maxwait 5 -horizon 2000"},
	{"imbalance", "-stages 2 -imbalance 4 -horizon 2000"},
	{"replay", "-replay testdata/replay.csv -warmup 30"},
	{"grid", "-replay testdata/grid.csv -warmup 0"},
}

func TestOutputMatchesGolden(t *testing.T) {
	for _, tc := range goldenRuns {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code, _ := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
				t.Fatalf("pipesim %s: exit %d, stderr %q", tc.args, code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("pipesim %s:\n got %s\nwant %s", tc.args, stdout.Bytes(), want)
			}
		})
	}
}

// TestDefaultPercentileBits pins the default run's p50/p95/p99 beyond
// the %.4g that pipesim prints.
func TestDefaultPercentileBits(t *testing.T) {
	code, got := run(nil, io.Discard, io.Discard)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	want := [3]uint64{0x4011c891a08f161b, 0x404d7954bb560ece, 0x405864dc8509f0d7}
	for i, v := range got {
		if math.Float64bits(v) != want[i] {
			t.Errorf("percentile %d = %v (%#016x), want %#016x", i, v, math.Float64bits(v), want[i])
		}
	}
}

// TestResponsePercentilesReported replays 100 far-apart unit tasks, so
// every response is 1.
func TestResponsePercentilesReported(t *testing.T) {
	var csv strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&csv, "%d,100,1\n", i*10)
	}
	path := filepath.Join(t.TempDir(), "unit.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	code, got := run([]string{"-replay", path, "-admission", "none", "-warmup", "0"}, io.Discard, io.Discard)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for i, v := range got {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("percentile %d = %v, want 1", i, v)
		}
	}
	if got[0] > got[1] || got[1] > got[2] {
		t.Error("percentiles out of order")
	}
}

// TestRecordThenReplayMatchesGolden records replay.csv's run as FRTRACE,
// which must not change the run, and replays the recording: it must
// print replay.golden.
func TestRecordThenReplayMatchesGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.trace")
	var plain, stdout, stderr bytes.Buffer
	if code, _ := run([]string{"-horizon", "300", "-warmup", "30"}, &plain, &stderr); code != 0 {
		t.Fatalf("plain run: exit %d, stderr %q", code, stderr.String())
	}
	if code, _ := run([]string{"-horizon", "300", "-warmup", "30", "-record", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("record: exit %d, stderr %q", code, stderr.String())
	}
	if want := "workload: 317 tasks recorded to " + path + "\n" + plain.String(); stdout.String() != want {
		t.Fatalf("record printed\n%s\nwant\n%s", stdout.String(), want)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "replay.golden"))
	if err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code, _ := run([]string{"-replay", path, "-warmup", "30"}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay: exit %d, stderr %q", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("replay of the recording:\n got %s\nwant %s", stdout.Bytes(), want)
	}
}

// TestBadReplayExits1 feeds -replay arrivals the simulator cannot
// schedule and CSVs the importer refuses: each exits 1 with an error.
func TestBadReplayExits1(t *testing.T) {
	for _, tc := range []struct{ name, csv, want string }{
		{"NaN arrival", "1,5,1\nNaN,5,1\n", "non-finite arrival"},
		{"negative arrival", "-5,5,1\n1,5,1\n", "negative arrival"},
		{"infinite deadline", "1,+Inf,1\n", "must be positive and finite"},
		{"unsorted", "5,10,1\n1,10,1\n", "time-ordered"},
		{"header only", "arrival,deadline,c1\n", "empty trace"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "w.csv")
			if err := os.WriteFile(path, []byte(tc.csv), 0o644); err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			if code, _ := run([]string{"-replay", path}, io.Discard, &stderr); code != 1 {
				t.Fatalf("exit %d, want 1", code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q, want %q", stderr.String(), tc.want)
			}
		})
	}
}

func TestBadFlagExits2(t *testing.T) {
	var stderr bytes.Buffer
	if code, _ := run([]string{"-policy", "lifo"}, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown policy "lifo"`) {
		t.Errorf("stderr %q", stderr.String())
	}
}
