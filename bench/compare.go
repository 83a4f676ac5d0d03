package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// spec is the part of BENCHMARK.json that -compare and the smoke test
// read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// splitSets turns the -compare arguments, result files from exactly two
// directories as a shell expands parent/*.json change/*.json, into the
// parent and change file lists.
func splitSets(args []string) (parent, change []string, err error) {
	var dirs []string
	groups := map[string][]string{}
	for _, f := range args {
		d := filepath.Dir(f)
		if _, ok := groups[d]; !ok {
			dirs = append(dirs, d)
		}
		groups[d] = append(groups[d], f)
	}
	if len(dirs) != 2 {
		return nil, nil, fmt.Errorf("want result files from exactly two directories (parent, change), got %d", len(dirs))
	}
	parent, change = groups[dirs[0]], groups[dirs[1]]
	slices.Sort(parent)
	slices.Sort(change)
	return parent, change, nil
}

// loadSet reads result files and indexes the results by workload, in
// file order.
func loadSet(files []string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, f := range files {
		doc, err := readDoc(f)
		if err != nil {
			return nil, err
		}
		for _, r := range doc.Results {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

// minPairs is the fewest parent/change pairs that can support a claimed
// gain.
const minPairs = 10

// verdict classifies one workload × metric comparison (choosing-metrics
// §6 and §8): improved when at least minPairs pairs ran, the change wins
// at least 90 % of them and the medians differ by more than the parent's
// interquartile range;
// unresolved when the parent's own spread exceeds the bound and the
// change does not beat every parent run; regressed when the change's
// median is worse than the parent's by more than the bound; otherwise
// no-worse.
func verdict(m specMetric, parent, change []float64) (v string, wins, pairs int) {
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pq, cq := quartiles(parent), quartiles(change)
	pm, cm := pq[1], cq[1]
	scale := math.Abs(pm)
	if scale == 0 {
		scale = 1
	}
	worse := (cm - pm) / scale
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := slices.Max(change) < slices.Min(parent)
	if m.Better == "higher" {
		allBetter = slices.Min(change) > slices.Max(parent)
	}
	switch {
	case pairs >= minPairs && float64(wins) >= 0.9*float64(pairs) && math.Abs(cm-pm) > pq[2]-pq[0] && better(cm, pm):
		return "improved", wins, pairs
	case (pq[2]-pq[0])/scale > m.Bound && !allBetter:
		return "unresolved", wins, pairs
	case worse > m.Bound:
		return "regressed", wins, pairs
	}
	return "no-worse", wins, pairs
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, the share of pairs the change won and the
// verdict, with the bounds of BENCHMARK.json in the current directory.
// It exits 1 when anything regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	pf, cf, err := splitSets(args)
	if err != nil {
		fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
		return 2
	}
	parent, err := loadSet(pf)
	if err == nil {
		var change map[string][]*result
		change, err = loadSet(cf)
		if err == nil {
			return printCompare(stdout, sp, parent, change, len(pf), len(cf))
		}
	}
	fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
	return 2
}

func printCompare(w io.Writer, sp *spec, parent, change map[string][]*result, np, nc int) int {
	fmt.Fprintf(w, "parent: %d files, change: %d files\n", np, nc)
	code := 0
	for _, wl := range sp.Workloads {
		ps, cs := parent[wl.Name], change[wl.Name]
		if len(ps) == 0 || len(cs) == 0 {
			fmt.Fprintf(w, "\n%s: missing on one side (%d parent, %d change runs)\n", wl.Name, len(ps), len(cs))
			continue
		}
		fmt.Fprintf(w, "\n%s (%d parent, %d change runs)\n", wl.Name, len(ps), len(cs))
		fmt.Fprintf(w, "  %-20s %-36s %-36s %7s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
		for _, m := range sp.EndToEnd {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "  %-20s missing\n", m.Name)
				continue
			}
			v, wins, pairs := verdict(m, pv, cv)
			if v == "regressed" {
				code = 1
			}
			pq, cq := quartiles(pv), quartiles(cv)
			fmt.Fprintf(w, "  %-20s %-36s %-36s %3d/%-3d  %s\n", m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", pq[1], pq[0], pq[2]),
				fmt.Sprintf("%.6g [%.6g, %.6g]", cq[1], cq[0], cq[2]), wins, pairs, v)
		}
		fmt.Fprintf(w, "  decision digests: %s\n", digestSummary(ps, cs))
	}
	return code
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// digestSummary reports whether every run on both sides made the same
// decisions. The digests are informational: a change may alter
// decisions on purpose.
func digestSummary(ps, cs []*result) string {
	seen := map[string]bool{}
	for _, r := range append(slices.Clone(ps), cs...) {
		for _, d := range r.Digests {
			seen[d] = true
		}
	}
	switch len(seen) {
	case 0:
		return "none (concurrent workload)"
	case 1:
		return "identical on both sides"
	}
	return fmt.Sprintf("%d distinct", len(seen))
}
