// Command bench is the repository's end-to-end benchmark. It
// synthesizes one FRTRACE trace from a seed (the -run replay scenario:
// three stages, interactive/batch/control cohorts, a diurnal curve and a
// flash crowd) and replays it through four stacks of increasing scope:
//
//	sim-admit     replayer → event core → core.Controller.TryAdmit
//	sim-pipeline  replayer → pipeline.Pipeline (DM stages, idle reset, metrics)
//	sim-fleet     replayer → pipeline.ClusterPipeline (4 replicas, p2c)
//	online-wall   2 concurrent clients → cluster.Cluster.Route (4 replicas)
//
// Each workload is set up, warmed up with one pass, then replayed on
// fresh stacks until the time budget is spent; metrics are medians over
// those passes, host times in reference seconds (scaled by a fixed
// calibration job timed after each pass). Every run checks its own outputs (decision
// digests identical across passes, zero deadline misses, acceptance of
// the concurrent plane within tolerance of a single-client reference)
// and exits non-zero when a check fails.
//
// Usage:
//
//	go run ./bench                                  # all workloads, each in a child process
//	go run ./bench -workload sim-admit -seed 42 -seconds 10 -trace 0
//	go run ./bench -trace 1 -trace-dir out          # per-layer metrics + sampled spans
//	go run ./bench -json run.json                   # also write the results as JSON
//	go run ./bench -compare parent/*.json change/*.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultPrefix marks the line carrying a child's full result to the
// parent of an all-workloads run.
const resultPrefix = "result: "

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-admit, sim-pipeline, sim-fleet or online-wall; empty runs all four, each in its own child process")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the synthesized trace, the only workload input (42 tunes, 7 is held out)")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measurement budget per workload: passes repeat until it is spent")
	traceFlag := fs.Int("trace", 0, "1 runs traced passes and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.traceDir, "trace-dir", cfg.traceDir, "directory for the sampled span files of a traced run")
	jsonPath := fs.String("json", "", "also write the full results to this file")
	compare := fs.Bool("compare", false, "compare two sets of -json results, from the repository root: -compare parent/*.json change/*.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	cfg.trace = *traceFlag == 1

	doc := runDoc{Seed: cfg.seed, Go: runtime.Version(), CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if *name == "" {
		results, ok := runChildren(cfg, stdout, stderr)
		doc.Results = results
		if !writeDoc(*jsonPath, &doc, stderr) {
			ok = false
		}
		printSummary(stdout, results)
		if !ok {
			return 1
		}
		return 0
	}

	def, found := findWorkload(*name)
	if !found {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(def, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printResult(stdout, res)
	doc.Results = []*result{res}
	if !writeDoc(*jsonPath, &doc, stderr) {
		return 1
	}
	line, err := resultLine(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encoding result: %v\n", err)
		return 1
	}
	full, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n%s\n", resultPrefix, full, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// resultLine encodes the last line of a workload run: exactly the keys
// correct, attempted, failed and metrics.
func resultLine(res *result) ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
}

// runDoc is the -json file: the host and every workload's result.
type runDoc struct {
	Seed       int64     `json:"seed"`
	Go         string    `json:"go"`
	CPU        string    `json:"cpu"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Results    []*result `json:"results"`
}

func writeDoc(path string, doc *runDoc, stderr io.Writer) bool {
	if path == "" {
		return true
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: writing %s: %v\n", path, err)
		return false
	}
	return true
}

func readDoc(path string) (*runDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc runDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runChildren runs every workload in its own child process, one after
// the other, so that heap state and peak RSS stay separate. Child
// output passes through; the child's result line is collected.
func runChildren(cfg config, stdout, stderr io.Writer) ([]*result, bool) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: locating own executable: %v\n", err)
		return nil, false
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	ok := true
	var results []*result
	for _, def := range workloads {
		cmd := exec.Command(exe, "-workload", def.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-trace-dir", cfg.traceDir)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
			return results, false
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(stderr, "bench: starting %s: %v\n", def.name, err)
			return results, false
		}
		var res *result
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if full, found := strings.CutPrefix(line, resultPrefix); found {
				res = &result{}
				if err := json.Unmarshal([]byte(full), res); err != nil {
					fmt.Fprintf(stderr, "bench: %s result: %v\n", def.name, err)
					res = nil
				}
				continue
			}
			if !strings.HasPrefix(line, "{") {
				fmt.Fprintln(stdout, line)
			}
		}
		werr := cmd.Wait()
		if res == nil {
			fmt.Fprintf(stderr, "bench: %s produced no result (%v)\n", def.name, werr)
			ok = false
			continue
		}
		if werr != nil || !res.Correct {
			ok = false
		}
		results = append(results, res)
	}
	return results, ok
}

// printResult writes one workload's metrics, one per line, with units.
func printResult(w io.Writer, r *result) {
	kind := "end-to-end"
	defs := endToEnd
	if r.Trace {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  records %d  passes %d (+1 warm-up)  %s\n", r.Workload, r.Seed, r.Records, r.Passes, kind)
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	if r.HostScale > 0 {
		fmt.Fprintf(w, "  host times in reference seconds: calibration job ran at %.3f of its reference speed\n", r.HostScale)
	}
	if r.LatencySamples > 0 {
		fmt.Fprintf(w, "  admit latency percentiles over at least %d samples per pass\n", r.LatencySamples)
	}
	if len(r.Digests) > 0 {
		fmt.Fprintf(w, "  decision digest %s over %d passes\n", r.Digests[0], len(r.Digests))
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  errors %d  correct %t\n", r.Attempted, r.Failed, r.Errors, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
}

// printSummary writes one row per metric and one column per workload.
func printSummary(w io.Writer, results []*result) {
	if len(results) == 0 {
		return
	}
	defs := endToEnd
	if results[0].Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "\n%-34s", "metric")
	for _, r := range results {
		fmt.Fprintf(w, " %14s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s", d.name+" ("+d.unit+")")
		for _, r := range results {
			fmt.Fprintf(w, " %14.6g", r.Metrics[d.name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-34s", "correct")
	for _, r := range results {
		fmt.Fprintf(w, " %14t", r.Correct)
	}
	fmt.Fprintln(w)
}
