package experiments

import (
	"fmt"

	"nimblock/internal/report"
	"nimblock/internal/workload"
)

// SlotSweepCounts are the overlay sizes swept: edge-scale devices hold
// fewer slots, cloud-scale devices more (the paper partitions the ZCU106
// into 10 and names both directions as future exploration).
var SlotSweepCounts = []int{4, 6, 8, 10, 14, 20}

// SlotSweepResult reports how overlay size affects each algorithm.
type SlotSweepResult struct {
	// MeanResponse maps slot count -> policy -> mean response seconds
	// under the stress scenario.
	MeanResponse map[int]map[string]float64
}

// SlotSweep reruns the stress stimulus on boards of different sizes.
// Nimblock is "flexible across different numbers of slots" (Section
// 2.1); the sweep quantifies that and shows where each algorithm
// saturates. Every board size is submitted to the worker pool together.
func SlotSweep(cfg Config) (*SlotSweepResult, error) {
	runs := make([]specRun, 0, len(SlotSweepCounts))
	for _, slots := range SlotSweepCounts {
		c := cfg
		c.HV.Board.Slots = slots
		spec := workload.Spec{Scenario: workload.Stress, Events: c.Events}
		runs = append(runs, specRun{cfg: c, spec: spec, scenario: workload.Stress})
	}
	datas, err := runSpecs(PolicyNames, runs)
	if err != nil {
		return nil, fmt.Errorf("slot sweep: %w", err)
	}
	out := &SlotSweepResult{MeanResponse: map[int]map[string]float64{}}
	for i, slots := range SlotSweepCounts {
		out.MeanResponse[slots] = map[string]float64{}
		for _, pol := range PolicyNames {
			out.MeanResponse[slots][pol] = meanResponse(datas[i].Results[pol])
		}
	}
	return out, nil
}

// Render prints the sweep.
func (r *SlotSweepResult) Render() string {
	t := &report.Table{
		Title:  "Slot sweep: mean response (s) by overlay size (stress)",
		Header: append([]string{"Slots"}, PolicyNames...),
	}
	for _, slots := range SlotSweepCounts {
		row := []any{fmt.Sprintf("%d", slots)}
		for _, pol := range PolicyNames {
			row = append(row, report.FormatSeconds(r.MeanResponse[slots][pol]))
		}
		t.AddRow(row...)
	}
	return t.Render()
}
