package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty input should yield 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean")
	}
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Fatal("odd median")
	}
	if !almost(Median([]float64{4, 1, 2, 3}), 2.5) {
		t.Fatal("even median")
	}
}

func TestJainIndex(t *testing.T) {
	if !almost(JainIndex([]float64{5, 5, 5}), 1) {
		t.Fatal("equal allocations should score 1")
	}
	if !almost(JainIndex([]float64{1, 0, 0, 0}), 0.25) {
		t.Fatal("monopoly over n tenants should score 1/n")
	}
	if !almost(JainIndex([]float64{1, 3}), 0.8) {
		t.Fatal("(1+3)^2 / (2*(1+9)) = 0.8")
	}
	if JainIndex(nil) != 1 || JainIndex([]float64{0, 0}) != 1 {
		t.Fatal("degenerate inputs should score 1")
	}
	// The index is scale-invariant and bounded in [1/n, 1].
	if err := quick.Check(func(a, b, c uint8) bool {
		xs := []float64{float64(a), float64(b), float64(c)}
		j := JainIndex(xs)
		scaled := JainIndex([]float64{xs[0] * 7, xs[1] * 7, xs[2] * 7})
		return j >= 1.0/3-1e-12 && j <= 1+1e-12 && almost(j, scaled)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {95, 48}, {-5, 10}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	// Input must not be mutated.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}

func res(id int64, prio int, respSec float64) hv.Result {
	return hv.Result{AppID: id, Priority: prio, Response: sim.Seconds(respSec)}
}

func TestReductions(t *testing.T) {
	base := []hv.Result{res(1, 3, 10), res(2, 3, 20)}
	algo := []hv.Result{res(2, 3, 5), res(1, 3, 5)} // order shuffled
	red, err := Reductions(base, algo)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(red[0], 4) || !almost(red[1], 2) {
		t.Fatalf("reductions = %v", red)
	}
	norm, err := NormalizedResponses(base, algo)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(norm[0], 0.25) || !almost(norm[1], 0.5) {
		t.Fatalf("normalized = %v", norm)
	}
}

func TestReductionsErrors(t *testing.T) {
	if _, err := Reductions([]hv.Result{res(1, 3, 1)}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Reductions([]hv.Result{res(1, 3, 1)}, []hv.Result{res(2, 3, 1)}); err == nil {
		t.Fatal("unmatched event accepted")
	}
	if _, err := Reductions([]hv.Result{res(1, 3, 0)}, []hv.Result{res(1, 3, 1)}); err == nil {
		t.Fatal("zero response accepted")
	}
}

func TestDeadlineSweep(t *testing.T) {
	results := []hv.Result{res(1, 9, 10), res(2, 9, 30), res(3, 1, 1000)}
	ss := map[int64]sim.Duration{
		1: sim.Seconds(10), // meets at Ds>=1
		2: sim.Seconds(10), // meets at Ds>=3
		3: sim.Seconds(1),  // low priority, excluded
	}
	points, err := DeadlineSweep(results, ss, DeadlineSpec{From: 1, To: 4, Step: 1, Priority: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %v", points)
	}
	wantRates := []float64{0.5, 0.5, 0, 0}
	for i, p := range points {
		if !almost(p.ViolationRate, wantRates[i]) {
			t.Fatalf("Ds=%v rate=%v, want %v", p.Ds, p.ViolationRate, wantRates[i])
		}
	}
	if ep := ErrorPoint(points, 0.10); !almost(ep, 3) {
		t.Fatalf("10%% error point = %v, want 3", ep)
	}
	if ep := ErrorPoint(points[:2], 0.10); ep != -1 {
		t.Fatalf("unreachable error point = %v, want -1", ep)
	}
}

func TestDeadlineSweepValidation(t *testing.T) {
	if _, err := DeadlineSweep(nil, nil, DeadlineSpec{From: 1, To: 0, Step: 1}); err == nil {
		t.Fatal("inverted grid accepted")
	}
	if _, err := DeadlineSweep([]hv.Result{res(1, 9, 1)}, map[int64]sim.Duration{}, DefaultDeadlineSpec()); err == nil {
		t.Fatal("missing single-slot latency accepted")
	}
}

func TestDefaultDeadlineSpecGrid(t *testing.T) {
	spec := DefaultDeadlineSpec()
	pts, err := DeadlineSweep(nil, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	// 1 to 20 at 0.25 = 77 samples.
	if len(pts) != 77 {
		t.Fatalf("grid has %d points, want 77", len(pts))
	}
	if !almost(pts[0].Ds, 1) || !almost(pts[len(pts)-1].Ds, 20) {
		t.Fatalf("grid endpoints %v..%v", pts[0].Ds, pts[len(pts)-1].Ds)
	}
}

func TestResponsesAndByApp(t *testing.T) {
	rs := []hv.Result{
		{AppID: 1, App: "a", Response: sim.Seconds(1)},
		{AppID: 2, App: "b", Response: sim.Seconds(2)},
		{AppID: 3, App: "a", Response: sim.Seconds(3)},
	}
	if xs := Responses(rs); !almost(xs[2], 3) {
		t.Fatalf("Responses = %v", xs)
	}
	m := ByApp(rs)
	if len(m["a"]) != 2 || len(m["b"]) != 1 {
		t.Fatalf("ByApp = %v", m)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		a := float64(p1 % 101)
		b := float64(p2 % 101)
		if a > b {
			a, b = b, a
		}
		va, vb := Percentile(xs, a), Percentile(xs, b)
		return va <= vb+1e-9 && va >= lo-1e-9 && vb <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	xs := []float64{10, 12, 9, 11, 10, 13, 8, 10, 11, 12}
	ci, err := BootstrapMeanCI(xs, 500, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ci.Point, Mean(xs)) {
		t.Fatalf("point = %v, want %v", ci.Point, Mean(xs))
	}
	if ci.Lo > ci.Point || ci.Hi < ci.Point {
		t.Fatalf("interval %+v does not bracket the point", ci)
	}
	// Interval should be within the sample range.
	if ci.Lo < 8 || ci.Hi > 13 {
		t.Fatalf("interval %+v outside sample range", ci)
	}
	// Deterministic.
	ci2, _ := BootstrapMeanCI(xs, 500, 0.95, 1)
	if ci != ci2 {
		t.Fatal("bootstrap not deterministic")
	}
	if ci.String() == "" {
		t.Fatal("empty string")
	}
}

func TestBootstrapValidation(t *testing.T) {
	if _, err := BootstrapMeanCI(nil, 10, 0.95, 1); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := BootstrapMeanCI([]float64{1}, 0, 0.95, 1); err == nil {
		t.Fatal("zero resamples accepted")
	}
	if _, err := BootstrapMeanCI([]float64{1}, 10, 1.5, 1); err == nil {
		t.Fatal("bad confidence accepted")
	}
}

func TestBootstrapNarrowsWithSampleSize(t *testing.T) {
	rngVals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i%7) + 1
		}
		return out
	}
	small, _ := BootstrapMeanCI(rngVals(10), 400, 0.95, 2)
	large, _ := BootstrapMeanCI(rngVals(1000), 400, 0.95, 2)
	if (large.Hi - large.Lo) >= (small.Hi - small.Lo) {
		t.Fatalf("CI did not narrow: small %v, large %v", small, large)
	}
}
