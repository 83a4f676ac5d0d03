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
// window still kept the P² percentiles itself; pipesim's own estimators
// must print the same bytes. replay.csv was written by
// `pipesim -horizon 300 -warmup 30 -record testdata/replay.csv`.
var goldenRuns = []struct {
	name string
	args string
}{
	{"default", ""},
	{"approx", "-admission approx -resolution 10 -horizon 2000"},
	{"maxwait", "-maxwait 5 -horizon 2000"},
	{"imbalance", "-stages 2 -imbalance 4 -horizon 2000"},
	{"replay", "-replay testdata/replay.csv -warmup 30"},
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

func TestBadFlagExits2(t *testing.T) {
	var stderr bytes.Buffer
	if code, _ := run([]string{"-policy", "lifo"}, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown policy "lifo"`) {
		t.Errorf("stderr %q", stderr.String())
	}
}
