package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tbl.AddRow("short", 1.5)
	tbl.AddRow("a-much-longer-name", "x")
	out := tbl.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== demo ==") {
		t.Fatalf("title line = %q", lines[0])
	}
	// Columns aligned: "value" column starts at the same offset in all rows.
	idx := strings.Index(lines[1], "value")
	if idx < 0 {
		t.Fatalf("header missing: %q", lines[1])
	}
	if got := strings.Index(lines[3], "1.5"); got != idx {
		t.Fatalf("value column misaligned (%d vs %d):\n%s", got, idx, out)
	}
	if !strings.Contains(out, "1.5") {
		t.Fatalf("float cell missing:\n%s", out)
	}
}

func TestTableNoHeader(t *testing.T) {
	tbl := &Table{}
	tbl.AddRow("a", "b")
	out := tbl.Render()
	if strings.Contains(out, "---") {
		t.Fatalf("separator printed without header:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[string]string{
		FormatFloat(1.5):      "1.5",
		FormatFloat(2.0):      "2",
		FormatFloat(0.333333): "0.333",
		FormatFloat(0):        "0",
		FormatSeconds(1.234):  "1.23s",
		FormatFactor(4.666):   "4.67x",
		FormatPercent(0.493):  "49.3%",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("formatter: got %q, want %q", got, want)
		}
	}
}

func TestRenderSeries(t *testing.T) {
	s := []Series{
		{Name: "A", X: []float64{1, 2, 3}, Y: []float64{10, 20, 30}},
		{Name: "B", X: []float64{1, 2, 3}, Y: []float64{5, 15}},
	}
	out := RenderSeries("fig", "Ds", s)
	if !strings.Contains(out, "== fig ==") || !strings.Contains(out, "Ds") {
		t.Fatalf("missing title/xlabel:\n%s", out)
	}
	if !strings.Contains(out, "30") {
		t.Fatalf("missing sample:\n%s", out)
	}
	// Short series pads with '-'.
	if !strings.Contains(out, "-") {
		t.Fatalf("missing pad:\n%s", out)
	}
	if RenderSeries("empty", "x", nil) == "" {
		t.Fatal("empty series should still render a title")
	}
}

func TestCSVExport(t *testing.T) {
	tbl := &Table{Header: []string{"name", "note"}}
	tbl.AddRow("plain", "a,b")
	tbl.AddRow(`quo"ted`, "line\nbreak")
	out := tbl.CSV()
	lines := strings.Split(out, "\n")
	if lines[0] != "name,note" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `plain,"a,b"` {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], `"quo""ted","line`) {
		t.Fatalf("row 2 = %q", lines[2])
	}
}
