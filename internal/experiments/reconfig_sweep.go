package experiments

import (
	"fmt"

	"nimblock/internal/report"
	"nimblock/internal/workload"
)

// ReconfigPoint is one reconfiguration-latency operating point, scaling
// the CAP and SD bandwidths so one slot image takes the given time.
type ReconfigPoint struct {
	Name  string
	Scale float64 // bandwidth divisor: 1 = ~80 ms, 4 = ~320 ms, 0.25 = ~20 ms
}

// ReconfigPoints sweeps the partial-reconfiguration latency from a fast
// ICAP-like port to a slow one: the paper observes task runtimes from
// 20% to 200x of the ~80 ms PR time, and that "masking the latency of
// partial reconfiguration is crucial to performance".
var ReconfigPoints = []ReconfigPoint{
	{Name: "~20ms", Scale: 0.25},
	{Name: "~80ms (paper)", Scale: 1},
	{Name: "~320ms", Scale: 4},
	{Name: "~1.3s", Scale: 16},
}

// ReconfigSweepResult reports how reconfiguration latency shifts the
// algorithm comparison.
type ReconfigSweepResult struct {
	// MeanResponse maps point name -> policy -> mean response seconds.
	MeanResponse map[string]map[string]float64
	// NimblockOverPrema maps point name -> PREMA/Nimblock mean ratio
	// (how much masking buys as reconfiguration gets more expensive).
	NimblockOverPrema map[string]float64
}

// ReconfigSweep reruns the stress stimulus with scaled reconfiguration
// latencies for PREMA and Nimblock (the masking-capable algorithm).
// Every latency point is submitted to the worker pool together.
func ReconfigSweep(cfg Config) (*ReconfigSweepResult, error) {
	pols := []string{"PREMA", "Nimblock"}
	runs := make([]specRun, 0, len(ReconfigPoints))
	for _, pt := range ReconfigPoints {
		c := cfg
		c.HV.Board.CAPBytesPerSec = cfg.HV.Board.CAPBytesPerSec / pt.Scale
		c.HV.Board.SDBytesPerSec = cfg.HV.Board.SDBytesPerSec / pt.Scale
		spec := workload.Spec{Scenario: workload.Stress, Events: c.Events}
		runs = append(runs, specRun{cfg: c, spec: spec, scenario: workload.Stress})
	}
	datas, err := runSpecs(pols, runs)
	if err != nil {
		return nil, fmt.Errorf("reconfig sweep: %w", err)
	}
	out := &ReconfigSweepResult{
		MeanResponse:      map[string]map[string]float64{},
		NimblockOverPrema: map[string]float64{},
	}
	for i, pt := range ReconfigPoints {
		out.MeanResponse[pt.Name] = map[string]float64{}
		for _, pol := range pols {
			out.MeanResponse[pt.Name][pol] = meanResponse(datas[i].Results[pol])
		}
		nim := out.MeanResponse[pt.Name]["Nimblock"]
		if nim > 0 {
			out.NimblockOverPrema[pt.Name] = out.MeanResponse[pt.Name]["PREMA"] / nim
		}
	}
	return out, nil
}

// Render prints the sweep.
func (r *ReconfigSweepResult) Render() string {
	t := &report.Table{
		Title:  "Reconfiguration latency sweep (stress): masking matters more as PR slows",
		Header: []string{"PR latency", "PREMA", "Nimblock", "PREMA/Nimblock"},
	}
	for _, pt := range ReconfigPoints {
		t.AddRow(pt.Name,
			report.FormatSeconds(r.MeanResponse[pt.Name]["PREMA"]),
			report.FormatSeconds(r.MeanResponse[pt.Name]["Nimblock"]),
			report.FormatFactor(r.NimblockOverPrema[pt.Name]))
	}
	return t.Render()
}
