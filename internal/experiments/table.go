package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is the fixed-width text table every experiment returns.
type Table struct {
	Header []string
	Rows   [][]string
	// Notes are free-form text blocks (possibly multi-line) rendered after
	// the rows — supplementary material like per-stage latency budgets that
	// does not fit the column grid.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a supplementary text block.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
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
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteByte('\n')
		b.WriteString(strings.TrimRight(n, "\n"))
		b.WriteByte('\n')
	}
	return b.String()
}

// Throughput converts a transaction count over a total duration into tps.
func Throughput(txs int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(txs) / elapsed.Seconds()
}

// FormatTPS renders a throughput with thousands separators, e.g. "38,400".
func FormatTPS(tps float64) string {
	n := int64(tps + 0.5)
	if n < 1000 {
		return fmt.Sprintf("%d", n)
	}
	var parts []string
	for n > 0 {
		if n >= 1000 {
			parts = append([]string{fmt.Sprintf("%03d", n%1000)}, parts...)
		} else {
			parts = append([]string{fmt.Sprintf("%d", n%1000)}, parts...)
		}
		n /= 1000
	}
	return strings.Join(parts, ",")
}
