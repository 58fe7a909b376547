package experiments

import (
	"fmt"

	"nimblock/internal/report"
	"nimblock/internal/workload"
)

// LoadPoints are the offered-load operating points: Poisson arrival
// rates in applications per second. The board saturates when offered
// work outpaces its ten slots.
var LoadPoints = []float64{0.1, 0.25, 0.5, 1.0, 2.0}

// LoadSweepResult holds open-system saturation curves: mean response vs
// offered load under Poisson arrivals, the arrival process cloud
// capacity planning assumes.
type LoadSweepResult struct {
	// MeanResponse maps arrival rate -> policy -> mean response seconds.
	MeanResponse map[float64]map[string]float64
}

// loadSweepPolicies compared in the sweep.
var loadSweepPolicies = []string{"FCFS", "PREMA", "RR", "Nimblock"}

// LoadSweep generates Poisson stimuli at each arrival rate (batch capped
// at 8 so the system can drain) and measures every sharing algorithm.
// Every rate point is submitted to the worker pool together.
func LoadSweep(cfg Config) (*LoadSweepResult, error) {
	runs := make([]specRun, 0, len(LoadPoints))
	for _, rate := range LoadPoints {
		spec := workload.Spec{
			Scenario:    workload.Stress, // unused when PoissonRate set
			Events:      cfg.Events,
			PoissonRate: rate,
			FixedBatch:  0,
			Pool: []string{ // exclude DigitRecognition: one arrival saturates any rate
				"LeNet", "ImageCompression", "3DRendering", "OpticalFlow", "AlexNet",
			},
		}
		runs = append(runs, specRun{cfg: cfg, spec: spec, scenario: workload.Stress})
	}
	datas, err := runSpecs(loadSweepPolicies, runs)
	if err != nil {
		return nil, fmt.Errorf("load sweep: %w", err)
	}
	out := &LoadSweepResult{MeanResponse: map[float64]map[string]float64{}}
	for i, rate := range LoadPoints {
		out.MeanResponse[rate] = map[string]float64{}
		for _, pol := range loadSweepPolicies {
			out.MeanResponse[rate][pol] = meanResponse(datas[i].Results[pol])
		}
	}
	return out, nil
}

// Render prints the sweep.
func (r *LoadSweepResult) Render() string {
	t := &report.Table{
		Title:  "Offered-load sweep: mean response (s) vs Poisson arrival rate (apps/s)",
		Header: append([]string{"Rate"}, loadSweepPolicies...),
	}
	for _, rate := range LoadPoints {
		row := []any{report.FormatFloat(rate)}
		for _, pol := range loadSweepPolicies {
			row = append(row, report.FormatSeconds(r.MeanResponse[rate][pol]))
		}
		t.AddRow(row...)
	}
	return t.Render()
}
