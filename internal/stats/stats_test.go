package stats

import (
	"math"
	"strings"
	"testing"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d, want 8", w.Count())
	}
	if got := w.Mean(); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if got := w.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("Var = %v, want %v", got, 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.StdDev() != 0 || w.Count() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Var() != 0 {
		t.Fatal("variance with one observation must be 0")
	}
	if w.Min() != 3.5 || w.Max() != 3.5 {
		t.Fatal("min/max with one observation")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 12, 8, 10})
	if s.Mean != 10 || s.N != 4 {
		t.Fatalf("summary %+v", s)
	}
	if s.Half95 <= 0 {
		t.Fatal("CI half-width must be positive with variance")
	}
	one := Summarize([]float64{5})
	if one.Half95 != 0 {
		t.Fatal("single replication has no CI")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "demo", Header: []string{"load", "util"}}
	tb.AddRow("0.60", "0.58")
	tb.AddRow("1", "0.8235")
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "load") {
		t.Fatalf("render missing title/header:\n%s", out)
	}
	if !strings.Contains(out, "0.8235") {
		t.Fatalf("render missing float row:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Header: []string{"a", "b"}}
	tb.AddRow("1", `va"l,ue`)
	csv := tb.CSV()
	want := "a,b\n1,\"va\"\"l,ue\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := Table{Title: "demo", Header: []string{"a", "b"}}
	tb.AddRow("1", "x|y")
	md := tb.Markdown()
	if !strings.Contains(md, "### demo") {
		t.Fatalf("markdown missing title:\n%s", md)
	}
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "|---|---|") {
		t.Fatalf("markdown header wrong:\n%s", md)
	}
	if !strings.Contains(md, `x\|y`) {
		t.Fatalf("pipe not escaped:\n%s", md)
	}
}

func TestTableMarkdownRaggedRows(t *testing.T) {
	tb := Table{Header: []string{"a"}}
	tb.AddRow("1", "2", "3")
	md := tb.Markdown()
	if !strings.Contains(md, "| 1 | 2 | 3 |") {
		t.Fatalf("ragged row not padded:\n%s", md)
	}
}
