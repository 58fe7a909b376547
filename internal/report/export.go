package report

import "strings"

// CSV renders the table as RFC-4180-style comma-separated values with a
// header row, for spreadsheet import of experiment results.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, r := range t.Rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
}

// csvEscape quotes a cell when it contains separators, quotes, or
// newlines.
func csvEscape(c string) string {
	if !strings.ContainsAny(c, ",\"\n\r") {
		return c
	}
	return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
}
