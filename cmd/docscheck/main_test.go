package main

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTree lays out a miniature repo under a temp dir: one documented
// package `core` with a struct type, a method, a const, and a plain
// function — enough surface for every branch of the identifier check.
func writeTree(t *testing.T, readme string) string {
	t.Helper()
	root := t.TempDir()
	pkgDir := filepath.Join(root, "internal", "core")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `// Package core is the fixture package.
package core

// Bound is an exported constant.
const Bound = 0.5

// Region is an exported struct.
type Region struct {
	// Alpha is an exported field.
	Alpha float64
}

// Check is an exported method.
func (r Region) Check() bool { return r.Alpha > 0 }

// New is an exported constructor.
func New() Region { return Region{} }
`
	if err := os.WriteFile(filepath.Join(pkgDir, "core.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "README.md"), []byte(readme), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestDocIdentifiersAccepted(t *testing.T) {
	readme := "Use `core.New` to build a `core.Region`; test it with\n" +
		"`core.Region.Check` against `core.Bound` and read\n" +
		"`core.Region.Alpha` directly.\n\n" +
		"```go\nr := core.New()\nok := r.Check()\n```\n\n" +
		"Prose like e.g. this, file names like `core.go`, and unknown\n" +
		"qualifiers like `time.Duration` or `p.Offer` are all ignored.\n"
	if problems := checkDocIdentifiers(writeTree(t, readme)); len(problems) != 0 {
		t.Fatalf("expected no problems, got %v", problems)
	}
}

func TestDocIdentifiersRejected(t *testing.T) {
	cases := []struct {
		name   string
		readme string
	}{
		{"unknown-ident", "Call `core.Missing` to do nothing.\n"},
		{"unknown-member", "The flag `core.Region.Gone` is long dead.\n"},
		{"go-fence", "```go\nv := core.Vanished\n```\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if problems := checkDocIdentifiers(writeTree(t, tc.readme)); len(problems) != 1 {
				t.Fatalf("expected exactly one problem, got %v", problems)
			}
		})
	}
}

// Non-go fenced blocks hold rendered tables and shell transcripts —
// anything inside them must not be treated as an API reference.
func TestDocIdentifiersSkipsNonGoFences(t *testing.T) {
	readme := "```text\ncore.Missing core.Region.Gone\n```\n\n" +
		"```\ncore.AlsoMissing\n```\n"
	if problems := checkDocIdentifiers(writeTree(t, readme)); len(problems) != 0 {
		t.Fatalf("expected no problems, got %v", problems)
	}
}

// perfTree writes a README whose Performance table has the given rows
// beside a two-commit BENCH_e2e.json; only the last commit's rows count.
func perfTree(t *testing.T, rows string) string {
	t.Helper()
	root := t.TempDir()
	readme := "## Performance\n\n" +
		"| workload | arrivals/s | admit p50 / p99 (ns) | accept ratio |\n|---|---|---|---|\n" + rows +
		"\n## Next\n\n| not | pinned |\n|---|---|\n| x | 1 |\n"
	bench := `{"rows": [
  {"workload": "w", "seed": 42, "metric": "arrivals_per_s", "value": 1, "commit": "old"},
  {"workload": "w", "seed": 42, "metric": "arrivals_per_s", "value": 4568200, "commit": "new"},
  {"workload": "w", "seed": 7, "metric": "arrivals_per_s", "value": 862197, "commit": "new"},
  {"workload": "w", "seed": 42, "metric": "admit_p50_ns", "value": 92.8799, "commit": "new"},
  {"workload": "w", "seed": 42, "metric": "admit_p99_ns", "value": 203.279, "commit": "new"},
  {"workload": "w", "seed": 42, "metric": "accept_ratio", "value": 0.84445, "commit": "new"}]}`
	for name, body := range map[string]string{"README.md": readme, "BENCH_e2e.json": bench} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestPerformanceTablePinned(t *testing.T) {
	if problems := checkPerformanceTable(perfTree(t, "| `w` | 4.57M [862k] | 93 / 203 | 0.844 |\n")); len(problems) != 0 {
		t.Fatalf("expected no problems, got %v", problems)
	}
	for _, row := range []string{
		"| `w` | 4.56M [862k] | 93 / 203 | 0.844 |\n",  // off in the last shown digit
		"| `w` | 4.57M [862k] | 93 / 203 | 0.845 |\n",  // 0.84445 rounds down
		"| `w` | 4.57M [862k] | 93 | 0.844 |\n",        // one number for two metrics
		"| `v` | 4.57M [862k] | 93 / 203 | 0.844 |\n",  // no rows for the workload
		"| `w` | 4.57M [4.57M] | 93 / 203 | 0.844 |\n", // seed 7 read as seed 42
	} {
		if problems := checkPerformanceTable(perfTree(t, row)); len(problems) == 0 {
			t.Errorf("row %q: expected a problem", row)
		}
	}
}
