package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline commits samples, recorded at the given GOMAXPROCS, to a
// temp BENCH_<rev>.json and returns its path.
func writeBaseline(t *testing.T, procs int, samples ...Sample) string {
	t.Helper()
	buf, err := json.Marshal(Report{Rev: "base", GOMAXPROCS: procs, Benchmarks: samples})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sample(name string, ns, allocs, bytes float64) Sample {
	return Sample{Name: name, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes}
}

func TestGate(t *testing.T) {
	const tolerance = 0.15
	cases := []struct {
		name string
		base []Sample
		got  []Sample
		// wantErr lists substrings the error must carry; nil means pass.
		wantErr []string
	}{
		{
			name: "within tolerance passes",
			base: []Sample{sample("ScaleOutSerial", 1000, 100, 4096)},
			got:  []Sample{sample("ScaleOutSerial", 1100, 110, 4500)},
		},
		{
			name:    "regression past tolerance fails and names the row",
			base:    []Sample{sample("ScaleOutSerial", 1000, 100, 4096), sample("FleetSerial", 1000, 100, 4096)},
			got:     []Sample{sample("ScaleOutSerial", 1000, 100, 4096), sample("FleetSerial", 1000, 130, 4096)},
			wantErr: []string{"FleetSerial", "allocs/op"},
		},
		{
			name: "rows known to one side only are skipped",
			base: []Sample{sample("ScaleOutSerial", 1000, 100, 4096), sample("RetiredSerial", 1, 1, 1)},
			got:  []Sample{sample("ScaleOutSerial", 1000, 100, 4096), sample("NewSerial", 1e9, 1e9, 1e9)},
		},
		{
			name:    "no shared rows is an error",
			base:    []Sample{sample("RetiredSerial", 1000, 100, 4096)},
			got:     []Sample{sample("NewSerial", 1000, 100, 4096)},
			wantErr: []string{"no benchmark shared"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := map[string]Sample{}
			for _, s := range tc.got {
				got[s.Name] = s
			}
			err := gate(io.Discard, writeBaseline(t, 2, tc.base...), got, 2, tolerance)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("gate failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("gate passed, want an error")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if strings.Contains(err.Error(), "ScaleOutSerial") {
				t.Errorf("error %q names a row within tolerance", err)
			}
		})
	}
}

// TestGateNamesGOMAXPROCS checks that the verdict, passing or failing,
// names both GOMAXPROCS values when the baseline was recorded at a
// different one, and stays silent about them when they match.
func TestGateNamesGOMAXPROCS(t *testing.T) {
	const note = "baseline at gomaxprocs 1, this run at 2"
	base := writeBaseline(t, 1, sample("FleetParallel", 1000, 100, 4096))
	var out bytes.Buffer
	if err := gate(&out, base, map[string]Sample{"FleetParallel": sample("FleetParallel", 1000, 100, 4096)}, 2, 0.15); err != nil {
		t.Fatalf("gate failed: %v", err)
	}
	if !strings.Contains(out.String(), note) {
		t.Errorf("passing verdict %q does not name the GOMAXPROCS change", out.String())
	}
	err := gate(io.Discard, base, map[string]Sample{"FleetParallel": sample("FleetParallel", 2000, 100, 4096)}, 2, 0.15)
	if err == nil || !strings.Contains(err.Error(), note) || !strings.Contains(err.Error(), "FleetParallel") {
		t.Errorf("failing verdict %v does not name the row and the GOMAXPROCS change", err)
	}
	out.Reset()
	if err := gate(&out, base, map[string]Sample{"FleetParallel": sample("FleetParallel", 1000, 100, 4096)}, 1, 0.15); err != nil {
		t.Fatalf("gate failed: %v", err)
	}
	if strings.Contains(out.String(), "gomaxprocs") {
		t.Errorf("verdict %q mentions GOMAXPROCS although both sides ran at 1", out.String())
	}
}
