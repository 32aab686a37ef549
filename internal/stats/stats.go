// Package stats renders the fixed-width tables of the paper-style result
// series (internal/bench, cmd/pvbench).
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Table renders paper-style result tables: a header row and aligned columns.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are rendered with %v, durations in ms,
// floats with 3 significant decimals.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = renderCell(c)
	}
	t.rows = append(t.rows, row)
}

func renderCell(c interface{}) string {
	switch v := c.(type) {
	case time.Duration:
		return fmt.Sprintf("%.3fms", float64(v.Nanoseconds())/1e6)
	case float64:
		return fmt.Sprintf("%.3f", v)
	case float32:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%v", c)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for i, h := range t.Headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteByte('\n')
	for i := range t.Headers {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
