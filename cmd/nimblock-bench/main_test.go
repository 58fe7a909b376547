package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline commits samples to a temp BENCH_<rev>.json and returns
// its path.
func writeBaseline(t *testing.T, samples ...Sample) string {
	t.Helper()
	buf, err := json.Marshal(Report{Rev: "base", Benchmarks: samples})
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
			err := gate(writeBaseline(t, tc.base...), got, tolerance)
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
