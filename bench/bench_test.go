package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeConfig runs a workload at tiny scale: a warm-up and two measured
// passes over 20k records.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.seconds, cfg.minPasses, cfg.records = 0, 2, 20_000
	cfg.traceDir = t.TempDir()
	return cfg
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// checkMetrics asserts that exactly the listed metrics are emitted, each
// with its listed unit.
func checkMetrics(t *testing.T, wl string, got map[string]metric, want []specMetric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", wl, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", wl, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		listed := map[string]bool{}
		for _, m := range want {
			listed[m.Name] = true
		}
		for name := range got {
			if !listed[name] {
				t.Errorf("%s: metric %s emitted but not listed in BENCHMARK.json", wl, name)
			}
		}
	}
}

func TestSpecListsEveryWorkload(t *testing.T) {
	sp := loadSpec(t)
	var got, want []string
	for _, w := range sp.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	sp := loadSpec(t)
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			res, err := runWorkload(def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct %t, failed %d: %v", res.Correct, res.Failed, res.Problems)
			}
			if res.Attempted != uint64(res.Passes*cfg.records) {
				t.Errorf("attempted %d, want %d passes × %d records", res.Attempted, res.Passes, cfg.records)
			}
			checkMetrics(t, def.name, res.Metrics, sp.EndToEnd)
			if want := cfg.records / latencyEvery; res.LatencySamples != want {
				t.Errorf("%d latency samples per pass, want %d", res.LatencySamples, want)
			}
			if res.HostScale <= 0 {
				t.Errorf("host scale %v, want the calibration job's speed", res.HostScale)
			}
			if def.stack != nil {
				if len(res.Digests) != 1+res.Passes {
					t.Fatalf("%d digests for %d passes plus warm-up", len(res.Digests), res.Passes)
				}
				for i, d := range res.Digests {
					if d != res.Digests[0] {
						t.Errorf("pass %d digest %s, pass 0 %s", i, d, res.Digests[0])
					}
				}
			}

			cfg.trace = true
			res, err = runWorkload(def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run incorrect: %v", res.Problems)
			}
			checkMetrics(t, def.name, res.Metrics, sp.PerLayer)
			spans, err := os.ReadFile(filepath.Join(cfg.traceDir, def.name+"-seed42.spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(spans, []byte("\n")); n < cfg.records/sampleEvery {
				t.Errorf("%d sampled spans for %d records", n, cfg.records)
			}
		})
	}
}

func TestResultLineKeys(t *testing.T) {
	res := &result{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {Value: 0.5, Unit: "s"}}}
	line, err := resultLine(res)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range obj {
		keys = append(keys, k)
	}
	if len(keys) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Fatalf("result line keys %v, want correct, attempted, failed, metrics", keys)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	doc := &runDoc{Seed: 7, Go: "go1", CPU: "cpu", NumCPU: 2, GOMAXPROCS: 2, Results: []*result{{
		Workload: "sim-admit", Seed: 7, Records: 10, Passes: 2, Correct: true, Attempted: 20,
		Digests: []string{"00000000000000ab", "00000000000000ab"},
		Metrics: map[string]metric{"arrivals_per_s": {Value: 1234567.891, Unit: "1/s"}},
	}}}
	path := filepath.Join(t.TempDir(), "run.json")
	if !writeDoc(path, doc, os.Stderr) {
		t.Fatal("writeDoc failed")
	}
	got, err := readDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("round trip changed the document:\n got %+v\nwant %+v", got, doc)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartiles([]float64{2, 1}), [3]float64{0.75, 1.5, 2.25}; got != want {
		t.Fatalf("quartiles %v, want %v", got, want)
	}
}

func TestHeapOrder(t *testing.T) {
	var h []float64
	for _, v := range []float64{5, 3, 8, 1, 9, 2, 7} {
		h = heapPush(h, v)
	}
	var got []float64
	for len(h) > 0 {
		var v float64
		v, h = heapPop(h)
		got = append(got, v)
	}
	if want := []float64{1, 2, 3, 5, 7, 8, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("heap popped %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "admit_p50_ns", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	same := []float64{101, 100, 100, 99, 101, 99, 100, 100, 101, 99}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"same", parent, same, "no-worse"},
		{"faster", parent, faster, "improved"},
		{"faster but too few pairs", parent[:5], faster[:5], "no-worse"},
		{"slower", parent, slower, "regressed"},
		{"noisy parent", noisy, same, "unresolved"},
	} {
		if got, _, _ := verdict(lower, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSplitSets(t *testing.T) {
	p, c, err := splitSets([]string{"a/1.json", "a/2.json", "b/1.json", "b/2.json"})
	if err != nil || strings.Join(p, ",") != "a/1.json,a/2.json" || strings.Join(c, ",") != "b/1.json,b/2.json" {
		t.Fatalf("splitSets = %v, %v, %v", p, c, err)
	}
	if _, _, err := splitSets([]string{"a/1.json"}); err == nil {
		t.Fatal("one directory accepted")
	}
}

func TestUnknownWorkloadExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errOut.String())
	}
}
