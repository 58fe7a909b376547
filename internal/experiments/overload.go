package experiments

import (
	"fmt"
	"sort"

	"nimblock/internal/admit"
	"nimblock/internal/cluster"
	"nimblock/internal/metrics"
	"nimblock/internal/obs"
	"nimblock/internal/report"
	"nimblock/internal/workload"
)

// OverloadMultipliers are the offered-load operating points as multiples
// of the computed saturation arrival rate: from comfortable (0.5x)
// through saturation (1x) to deep overload (4x).
var OverloadMultipliers = []float64{0.5, 1, 2, 4}

// overloadBoards is the cluster size the overload study runs on.
const overloadBoards = 2

// overloadBatchCap caps drawn batch sizes so offered work scales with
// the arrival rate rather than a heavy tail of giant batches.
const overloadBatchCap = 8

// overloadPool excludes DigitRecognition: a single arrival of it
// saturates any rate on its own.
var overloadPool = []string{"LeNet", "ImageCompression", "3DRendering", "OpticalFlow", "AlexNet"}

// OverloadPoint aggregates one operating point of the sweep.
type OverloadPoint struct {
	// Multiplier and Rate describe the offered load (Rate in apps/s).
	Multiplier float64
	Rate       float64
	// Admission accounting summed over every sequence at this point.
	// Shed includes Evicted (admitted first, displaced later), so
	// Admitted - Evicted + Shed == Offered.
	Offered  int
	Admitted int
	Shed     int
	Evicted  int
	// Admitted-traffic latency (seconds).
	MeanResponse float64
	P99Response  float64
}

// OverloadResult holds the graceful-degradation sweep: a bounded
// admission queue in front of a two-board cluster, offered Poisson
// arrivals from half to four times the saturation rate. Past saturation
// the shed count absorbs the excess while admitted-traffic latency stays
// bounded — without admission the backlog (and every response time)
// would grow with the arrival rate instead.
type OverloadResult struct {
	Boards   int
	Capacity int
	// BaseRate is the computed saturation arrival rate (apps/s): the
	// cluster's aggregate slots divided by the pool's mean single-slot
	// latency at the mean generated batch.
	BaseRate float64
	Points   []*OverloadPoint
}

// overloadAdmission is the controller configuration the study uses:
// enough queue for a short burst, a dispatch window matching the
// cluster's parallelism, shedding beyond it.
func overloadAdmission(reg *obs.Registry) *admit.Config {
	return &admit.Config{
		Capacity:    3 * overloadBoards,
		MaxInFlight: 2 * overloadBoards,
		Registry:    reg,
	}
}

// overloadBaseRate estimates the saturation arrival rate: boards x slots
// single-slot servers draining the pool's mean job.
func overloadBaseRate(cfg Config) float64 {
	mean := 0.0
	meanBatch := (1 + overloadBatchCap) / 2
	for _, name := range overloadPool {
		mean += cachedSingleSlot(cfg.HV.Board, name, meanBatch).Seconds()
	}
	mean /= float64(len(overloadPool))
	return float64(overloadBoards*cfg.HV.Board.Slots) / mean
}

// Overload sweeps Poisson arrival rate past saturation and measures how
// the admission-fronted cluster degrades. reg, when non-nil, receives
// the live admit_* counters/gauges from every run (the -serve
// side-channel); pass nil when only the returned aggregates matter.
func Overload(cfg Config, reg *obs.Registry) (*OverloadResult, error) {
	base := overloadBaseRate(cfg)
	// Same per-sequence seed at every multiplier: the generator draws
	// jobs and gaps from one stream, so each operating point replays the
	// identical job mix with arrival gaps compressed by the rate — the
	// sweep isolates the rate effect.
	seeds := make([]int64, cfg.Sequences)
	for s := range seeds {
		seeds[s] = cfg.Seed + int64(s)*1_000_003
	}
	type overloadRun struct {
		responses []float64
		stats     admit.Stats
	}
	runs, err := sweep(cfg, OverloadMultipliers, seeds, func(m float64, _ int, seed int64) (overloadRun, error) {
		seq := workload.Generate(workload.Spec{
			Events:      cfg.Events,
			PoissonRate: base * m,
			BatchCap:    overloadBatchCap,
			Pool:        overloadPool,
		}, seed)
		cl, results, _, err := runCluster(cfg, cluster.Config{
			Boards:    overloadBoards,
			HV:        cfg.HV,
			Dispatch:  cluster.LeastLoaded,
			Admission: overloadAdmission(reg),
		}, "Nimblock", seq, nil)
		if err != nil {
			return overloadRun{}, err
		}
		run := overloadRun{stats: cl.AdmissionStats()}
		for _, r := range results {
			if !r.Rejected {
				run.responses = append(run.responses, r.Response.Seconds())
			}
		}
		return run, nil
	})
	if err != nil {
		return nil, fmt.Errorf("overload: %w", err)
	}
	out := &OverloadResult{
		Boards:   overloadBoards,
		Capacity: overloadAdmission(nil).Capacity,
		BaseRate: base,
	}
	for mi, m := range OverloadMultipliers {
		pt := &OverloadPoint{Multiplier: m, Rate: base * m}
		var responses []float64
		for _, r := range runs[mi] {
			responses = append(responses, r.responses...)
			pt.Offered += r.stats.Offered
			pt.Admitted += r.stats.Admitted
			pt.Shed += r.stats.Shed
			pt.Evicted += r.stats.Evicted
		}
		sort.Float64s(responses)
		pt.MeanResponse = metrics.Mean(responses)
		pt.P99Response = metrics.Percentile(responses, 99)
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Render prints the sweep.
func (r *OverloadResult) Render() string {
	t := &report.Table{
		Title: fmt.Sprintf(
			"Overload sweep: %d boards, admission capacity %d, saturation ~%s apps/s",
			r.Boards, r.Capacity, report.FormatFloat(r.BaseRate)),
		Header: []string{"Load", "Rate", "Offered", "Admitted", "Shed", "Mean resp", "p99 resp"},
	}
	for _, pt := range r.Points {
		t.AddRow(
			fmt.Sprintf("%gx", pt.Multiplier),
			report.FormatFloat(pt.Rate),
			pt.Offered,
			pt.Admitted,
			pt.Shed,
			report.FormatSeconds(pt.MeanResponse),
			report.FormatSeconds(pt.P99Response),
		)
	}
	return t.Render()
}
