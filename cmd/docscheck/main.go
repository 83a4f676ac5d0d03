// Docscheck enforces the repository's documentation invariants:
//
//  1. every Go package carries package-level documentation;
//  2. every exported identifier of the public API (the root feasregion
//     package) has a doc comment;
//  3. every relative link in the markdown files resolves to a file or
//     directory that exists;
//  4. every qualified identifier (`pkg.Ident`, and `pkg.Type.Member`
//     where resolvable) named in README.md, DESIGN.md, THEORY.md, and
//     EXPERIMENTS.md code spans exists in the named package — the
//     mechanical guard against documentation rot when APIs are renamed;
//  5. every number in README.md's Performance table equals the last row
//     set of BENCH_e2e.json at the precision the cell shows.
//
// It prints one line per violation and exits non-zero if any were
// found. Run via `make docs-check`; CI runs it on every push.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// mdLink matches inline markdown links/images: [text](target). Angle
// brackets around the target and trailing titles are handled below.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkMarkdownLinks(root)...)
	problems = append(problems, checkGoDocs(root)...)
	problems = append(problems, checkDocIdentifiers(root)...)
	problems = append(problems, checkPerformanceTable(root)...)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Printf("docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// skipDir reports directories that hold no checked content.
func skipDir(name string) bool {
	switch name {
	case ".git", "testdata", "results", "node_modules":
		return true
	}
	return strings.HasPrefix(name, ".") && name != "."
}

// checkMarkdownLinks resolves every relative link target in every
// tracked markdown file against the filesystem.
func checkMarkdownLinks(root string) []string {
	var problems []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := strings.Trim(m[1], "<>")
				if bad := badRelativeLink(filepath.Dir(path), target); bad != "" {
					problems = append(problems,
						fmt.Sprintf("%s:%d: broken link %q (%s)", path, lineNo+1, target, bad))
				}
			}
		}
		return nil
	})
	return problems
}

// badRelativeLink returns a non-empty reason when target is a relative
// link that does not resolve from dir. External schemes, pure
// fragments, and absolute URLs are out of scope.
func badRelativeLink(dir, target string) string {
	if target == "" || strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
		return ""
	}
	target, _, _ = strings.Cut(target, "#") // fragment resolution is out of scope
	if target == "" {
		return ""
	}
	if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
		return "no such file"
	}
	return ""
}

// checkGoDocs parses every package under root and enforces the two Go
// documentation invariants: package docs everywhere, exported-identifier
// docs in the public (root) package.
func checkGoDocs(root string) []string {
	var problems []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		for name, pkg := range pkgs {
			if name == "main" && path != root {
				// Commands document themselves through the main package
				// comment; still require that comment below.
			}
			dp := doc.New(pkg, path, 0)
			if strings.TrimSpace(dp.Doc) == "" {
				problems = append(problems, fmt.Sprintf("%s: package %s has no package documentation", path, name))
			}
			// Exported-identifier docs are enforced for the public API
			// surface only: the root package is what users import.
			if path == root && name != "main" {
				problems = append(problems, undocumentedExported(dp, path)...)
			}
		}
		return nil
	})
	return problems
}

// docIdentFiles are the markdown files whose code spans name public
// API identifiers and therefore rot silently when the API moves.
var docIdentFiles = []string{"README.md", "DESIGN.md", "THEORY.md", "EXPERIMENTS.md"}

// qualifiedIdent matches pkg.Ident and pkg.Type.Member inside a code
// span. The qualifier must be a lower-case word so file names
// (`core.go`) and prose abbreviations never match; the identifier must
// be exported, since that is all the docs may legitimately name.
var qualifiedIdent = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z][A-Za-z0-9_]*))?`)

// inlineSpan extracts `code` spans from a markdown line.
var inlineSpan = regexp.MustCompile("`([^`]+)`")

// docIdent records one exported declaration of a package: whether it
// is a type, and — when the full member set is statically knowable
// (no alias, no embedding) — its exported methods and fields.
type docIdent struct {
	isType   bool
	complete bool
	members  map[string]bool
}

// checkDocIdentifiers verifies that every qualified identifier named in
// the tracked markdown files' code spans exists in the named package.
// Inline spans and fenced `go` blocks are checked; other fenced blocks
// (shell transcripts, rendered tables) are not code and are skipped.
// Qualifiers that are not package names in this repository are ignored,
// so local variables (`p.Offer`) and standard-library mentions never
// produce false positives.
func checkDocIdentifiers(root string) []string {
	syms := collectDocSymbols(root)
	var problems []string
	for _, name := range docIdentFiles {
		path := filepath.Join(root, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the file set is aspirational; absent files are fine
		}
		inFence, goFence := false, false
		for lineNo, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "```") {
				goFence = !inFence && strings.TrimPrefix(trimmed, "```") == "go"
				inFence = !inFence
				continue
			}
			var spans []string
			switch {
			case inFence && goFence:
				spans = []string{line}
			case !inFence:
				for _, m := range inlineSpan.FindAllStringSubmatch(line, -1) {
					spans = append(spans, m[1])
				}
			}
			for _, span := range spans {
				problems = append(problems, checkSpan(syms, path, lineNo+1, span)...)
			}
		}
	}
	return problems
}

// checkSpan flags qualified identifiers in one code span that name a
// known package but an unknown exported declaration, or a known type
// but an unknown member when the member set is statically complete.
func checkSpan(syms map[string]map[string]*docIdent, path string, lineNo int, span string) []string {
	var problems []string
	for _, m := range qualifiedIdent.FindAllStringSubmatch(span, -1) {
		pkg, ident, member := m[1], m[2], m[3]
		tbl, ok := syms[pkg]
		if !ok {
			continue
		}
		e, ok := tbl[ident]
		if !ok {
			problems = append(problems,
				fmt.Sprintf("%s:%d: code span names %s.%s, which does not exist", path, lineNo, pkg, ident))
			continue
		}
		if member != "" && ast.IsExported(member) && e.isType && e.complete && !e.members[member] {
			problems = append(problems,
				fmt.Sprintf("%s:%d: code span names %s.%s.%s, but %s.%s has no such member", path, lineNo, pkg, ident, member, pkg, ident))
		}
	}
	return problems
}

// collectDocSymbols parses every non-main package under root and builds
// the package-name → exported-declaration table that checkSpan resolves
// against. Aliased types and types with embedded fields keep
// complete=false so member lookups on them are skipped rather than
// guessed.
func collectDocSymbols(root string) map[string]map[string]*docIdent {
	syms := map[string]map[string]*docIdent{}
	ensure := func(tbl map[string]*docIdent, name string) *docIdent {
		e, ok := tbl[name]
		if !ok {
			e = &docIdent{members: map[string]bool{}}
			tbl[name] = e
		}
		return e
	}
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return nil // checkGoDocs already reports parse failures
		}
		for name, pkg := range pkgs {
			if name == "main" || strings.HasSuffix(name, "_test") {
				continue
			}
			tbl := syms[name]
			if tbl == nil {
				tbl = map[string]*docIdent{}
				syms[name] = tbl
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					collectDecl(tbl, ensure, decl)
				}
			}
		}
		return nil
	})
	return syms
}

// collectDecl adds one top-level declaration to the package table.
func collectDecl(tbl map[string]*docIdent, ensure func(map[string]*docIdent, string) *docIdent, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil {
			if len(d.Recv.List) == 1 && ast.IsExported(d.Name.Name) {
				if tn := recvTypeName(d.Recv.List[0].Type); tn != "" && ast.IsExported(tn) {
					e := ensure(tbl, tn)
					e.isType = true
					e.members[d.Name.Name] = true
				}
			}
		} else if ast.IsExported(d.Name.Name) {
			ensure(tbl, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !ast.IsExported(s.Name.Name) {
					continue
				}
				e := ensure(tbl, s.Name.Name)
				e.isType = true
				e.complete = !s.Assign.IsValid()
				switch t := s.Type.(type) {
				case *ast.StructType:
					collectFields(e, t.Fields)
				case *ast.InterfaceType:
					collectFields(e, t.Methods)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if ast.IsExported(n.Name) {
						ensure(tbl, n.Name)
					}
				}
			}
		}
	}
}

// collectFields records a struct's fields or an interface's methods on
// e; an embedded entry (no names) makes the member set incomplete, as
// promoted members live in another declaration.
func collectFields(e *docIdent, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			e.complete = false
			continue
		}
		for _, n := range f.Names {
			if ast.IsExported(n.Name) {
				e.members[n.Name] = true
			}
		}
	}
}

// recvTypeName resolves a method receiver expression to its type name,
// unwrapping pointers and generic instantiations.
func recvTypeName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr:
			expr = t.X
		case *ast.IndexListExpr:
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// undocumentedExported lists exported identifiers of a parsed package
// that carry no doc comment.
func undocumentedExported(dp *doc.Package, path string) []string {
	var problems []string
	flag := func(kind, name, docText string) {
		if strings.TrimSpace(docText) == "" {
			problems = append(problems, fmt.Sprintf("%s: exported %s %s is undocumented", path, kind, name))
		}
	}
	for _, f := range dp.Funcs {
		flag("func", f.Name, f.Doc)
	}
	for _, t := range dp.Types {
		if ast.IsExported(t.Name) {
			flag("type", t.Name, t.Doc)
		}
		for _, f := range t.Funcs {
			flag("func", f.Name, f.Doc)
		}
		for _, m := range t.Methods {
			flag("method", t.Name+"."+m.Name, m.Doc)
		}
	}
	for _, grp := range [][]*doc.Value{dp.Consts, dp.Vars} {
		for _, v := range grp {
			if strings.TrimSpace(v.Doc) != "" {
				continue
			}
			for _, n := range v.Names {
				if ast.IsExported(n) {
					problems = append(problems, fmt.Sprintf("%s: exported value %s is undocumented", path, n))
				}
			}
		}
	}
	return problems
}

// perfColumns maps the headers of README.md's Performance table to the
// BENCH_e2e.json metrics their cells show, in order ("a / b" cells show
// two).
var perfColumns = map[string][]string{
	"arrivals/s":           {"arrivals_per_s"},
	"admit p50 / p99 (ns)": {"admit_p50_ns", "admit_p99_ns"},
	"accept ratio":         {"accept_ratio"},
	"B / arrival":          {"bytes_per_arrival"},
	"peak RSS (MiB)":       {"peak_rss_mb"},
}

// perfNumber matches one number in a Performance table cell: an opening
// bracket for the held-out seed 7, the digits with their decimals, and a
// k (10^3) or M (10^6) suffix.
var perfNumber = regexp.MustCompile(`(\[?)([0-9]+(?:\.([0-9]+))?)([kM]?)`)

// checkPerformanceTable pins every number in README.md's Performance
// table to the last row set of BENCH_e2e.json (the rows of the last
// commit label in file order): it must equal that set's median for the
// row's workload, the seed (42 unless bracketed) and the column's
// metric, rounded to the decimals the cell shows.
func checkPerformanceTable(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "BENCH_e2e.json"))
	readme, err2 := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil || err2 != nil {
		return nil // nothing to pin
	}
	var bench struct {
		Rows []struct {
			Workload, Metric, Commit string
			Seed                     int
			Value                    float64
		}
	}
	if err := json.Unmarshal(data, &bench); err != nil || len(bench.Rows) == 0 {
		return []string{fmt.Sprintf("BENCH_e2e.json: no rows (%v)", err)}
	}
	last := bench.Rows[len(bench.Rows)-1].Commit
	median := map[string]float64{}
	for _, r := range bench.Rows {
		if r.Commit == last {
			median[fmt.Sprint(r.Workload, "/", r.Seed, "/", r.Metric)] = r.Value
		}
	}
	var problems []string
	inPerf, cols := false, [][]string(nil) // cols: each column's metrics, nil outside a table
	for i, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "## ") {
			inPerf = line == "## Performance"
		}
		if !inPerf || !strings.HasPrefix(line, "|") {
			cols = nil
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		for k := range cells {
			cells[k] = strings.TrimSpace(cells[k])
		}
		if cols == nil { // the header row
			for _, h := range cells {
				cols = append(cols, perfColumns[h])
			}
			continue
		}
		workload := strings.Trim(cells[0], "`")
		for k := 1; k < len(cells) && !strings.HasPrefix(cells[0], "---"); k++ {
			parts := strings.Split(cells[k], " / ")
			if k >= len(cols) || len(parts) != len(cols[k]) {
				problems = append(problems, fmt.Sprintf("README.md:%d: Performance table cell %q matches no metric", i+1, cells[k]))
				continue
			}
			for n, part := range parts {
				for _, m := range perfNumber.FindAllStringSubmatch(part, -1) {
					seed, scale := 42, map[string]float64{"": 1, "k": 1e3, "M": 1e6}[m[4]]
					if m[1] == "[" {
						seed = 7
					}
					key := fmt.Sprint(workload, "/", seed, "/", cols[k][n])
					v, ok := median[key]
					want := strconv.FormatFloat(v/scale, 'f', len(m[3]), 64)
					if !ok {
						want = "no row"
					}
					if want != m[2] {
						problems = append(problems, fmt.Sprintf("README.md:%d: Performance table shows %s for %s; BENCH_e2e.json commit %q: %s", i+1, m[2], key, last, want))
					}
				}
			}
		}
	}
	return problems
}
