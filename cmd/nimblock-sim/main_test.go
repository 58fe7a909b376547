package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nimblock/internal/sim"
	"nimblock/internal/trace"
	"nimblock/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_outputs.golden")

// TestGoldenTraceOutputs pins every report built from the execution
// trace — the -trace dump, -summary, -gantt, the -gantt-svg file and the
// -trace-json file — for one seed and policy, byte for byte. Refresh
// intentionally with -update and explain the change.
func TestGoldenTraceOutputs(t *testing.T) {
	dir := t.TempDir()
	svgPath, jsonPath := filepath.Join(dir, "gantt.svg"), filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-algo", "Nimblock", "-scenario", "stress", "-events", "5", "-batch", "3", "-seed", "3",
		"-trace", "-summary", "-gantt", "-gantt-svg", svgPath, "-trace-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(out.String(), dir, "$DIR")
	for _, p := range []string{svgPath, jsonPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got += "\n== " + filepath.Base(p) + "\n" + string(data) + "\n"
	}
	path := filepath.Join("testdata", "trace_outputs.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s:%d drifted\n got: %.200q\nwant: %.200q", path, i+1, g, w)
		}
	}
}

func TestLoadOrGenerateScenarios(t *testing.T) {
	for _, sc := range []string{"standard", "stress", "real-time", "realtime"} {
		seq, err := loadOrGenerate("", sc, 5, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if len(seq) != 5 {
			t.Fatalf("%s: %d events", sc, len(seq))
		}
	}
	if _, err := loadOrGenerate("", "bogus", 5, 1, 0); err == nil {
		t.Fatal("bogus scenario accepted")
	}
}

func TestLoadOrGenerateFromFile(t *testing.T) {
	seqs := []workload.Sequence{workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 3}, 2)}
	data, err := workload.MarshalJSON(seqs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, err := loadOrGenerate(path, "stress", 99, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3 {
		t.Fatalf("loaded %d events, want 3 from file", len(seq))
	}
	if _, err := loadOrGenerate(filepath.Join(t.TempDir(), "missing.json"), "stress", 1, 1, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCompareAll(t *testing.T) {
	seq := workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 4, FixedBatch: 2}, 3)
	if err := compareAll(io.Discard, seq); err != nil {
		t.Fatal(err)
	}
}

func TestGanttFromTrace(t *testing.T) {
	lg := trace.New()
	sec := func(s float64) sim.Time { return sim.Time(s * 1e6) }
	lg.Observe(trace.Event{At: sec(0), Kind: trace.KindReconfigStart, App: "a", Slot: 0, Task: 0, Item: -1})
	lg.Observe(trace.Event{At: sec(0.08), Kind: trace.KindReconfigDone, App: "a", Slot: 0, Task: 0, Item: -1})
	lg.Observe(trace.Event{At: sec(0.08), Kind: trace.KindItemStart, App: "a", Slot: 0, Task: 0, Item: 0})
	lg.Observe(trace.Event{At: sec(1), Kind: trace.KindItemDone, App: "a", Slot: 0, Task: 0, Item: 0})
	svg, err := ganttFromTrace(lg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "slot occupancy") {
		t.Fatalf("bad svg: %.80s", svg)
	}
}
