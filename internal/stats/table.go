package stats

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: the rows/series a paper figure
// or table reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns a column-aligned plain-text rendering.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", w))
		}
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns a comma-separated rendering (header first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown returns a GitHub-flavored markdown rendering of the table
// (used by cmd/experiments -md to emit a results document).
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("### " + t.Title + "\n\n")
	}
	cols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	if cols == 0 {
		return b.String()
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = strings.ReplaceAll(cells[i], "|", "\\|")
			}
			b.WriteString(" " + c + " |")
		}
		b.WriteString("\n")
	}
	header := t.Header
	if len(header) == 0 {
		header = make([]string, cols)
	}
	writeRow(header)
	b.WriteString("|")
	for i := 0; i < cols; i++ {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
