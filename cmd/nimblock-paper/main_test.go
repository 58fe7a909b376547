package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nimblock/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden -exp all -quick output")

// maskHostTimed blanks the one host-timed field of the output: the last
// column (events per host second) of the fleet scale-up table. Every
// other field is simulated and byte-identical across runs and worker
// counts.
func maskHostTimed(out string) string {
	lines := strings.Split(out, "\n")
	inFleet := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "== Fleet scale-up"):
			inFleet = true
		case l == "":
			inFleet = false
		}
		if inFleet {
			f := strings.Fields(l)
			lines[i] = strings.Join(f[:len(f)-1], " ")
		}
	}
	return strings.Join(lines, "\n")
}

// TestGoldenQuickOutput pins the full quick-scale paper output: any
// change to a simulated number anywhere in the evaluation shows up as a
// diff against testdata/all_quick.golden. Refresh intentionally with
// -update and explain the change.
func TestGoldenQuickOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := render(&buf, experiments.QuickConfig(), "all", nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all_quick.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	got := strings.Split(maskHostTimed(buf.String()), "\n")
	want := strings.Split(maskHostTimed(string(raw)), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s:%d drifted\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

func TestMaskHostTimed(t *testing.T) {
	a := "x\n== Fleet scale-up: t ==\nScale  Ev/s \n-----------\n1x     8.6e+04\n\ny 1"
	b := "x\n== Fleet scale-up: t ==\nScale  Ev/s\n----------\n1x     1e+05  \n\ny 1"
	if maskHostTimed(a) != maskHostTimed(b) {
		t.Fatalf("host-timed column not masked:\n%s\n%s", maskHostTimed(a), maskHostTimed(b))
	}
	if maskHostTimed("y 1") == maskHostTimed("y 2") {
		t.Fatal("mask hid a field outside the fleet table")
	}
}
