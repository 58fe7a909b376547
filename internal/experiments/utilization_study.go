package experiments

import (
	"fmt"

	"nimblock/internal/metrics"
	"nimblock/internal/report"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// UtilizationResult quantifies the paper's motivating argument: the
// no-sharing model under-utilizes the fabric ("dedicating entire pieces
// of hardware to a single job, regardless of whether or not the job
// needs to use all the resources"), while fine-grained sharing keeps
// slots busy.
type UtilizationResult struct {
	// Utilization maps policy -> mean slot-time utilization (0..1) over
	// each sequence's makespan, averaged across sequences.
	Utilization map[string]float64
	// Makespan maps policy -> mean makespan seconds per sequence.
	Makespan map[string]float64
}

// UtilizationStudy measures slot occupancy under the stress scenario for
// every policy.
func UtilizationStudy(cfg Config) (*UtilizationResult, error) {
	type utilRun struct{ util, span float64 }
	seqs := cfg.sequences(workload.Spec{Scenario: workload.Stress, Events: cfg.Events})
	runs, err := sweep(cfg, PolicyNames, seqs, func(pol string, si int, seq workload.Sequence) (utilRun, error) {
		h, results, err := runBoard(cfg, pol, seq)
		if err != nil {
			return utilRun{}, fmt.Errorf("utilization %s sequence %d: %w", pol, si, err)
		}
		var makespan sim.Time
		for _, r := range results {
			if r.Retire > makespan {
				makespan = r.Retire
			}
		}
		return utilRun{util: h.Utilization(makespan), span: makespan.Seconds()}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &UtilizationResult{
		Utilization: map[string]float64{},
		Makespan:    map[string]float64{},
	}
	for pi, pol := range PolicyNames {
		var utils, spans []float64
		for _, run := range runs[pi] {
			utils = append(utils, run.util)
			spans = append(spans, run.span)
		}
		out.Utilization[pol] = metrics.Mean(utils)
		out.Makespan[pol] = metrics.Mean(spans)
	}
	return out, nil
}

// Render prints the study.
func (r *UtilizationResult) Render() string {
	t := &report.Table{
		Title:  "Utilization study: slot-time occupancy over sequence makespan (stress)",
		Header: []string{"Policy", "Utilization", "Mean makespan"},
	}
	for _, pol := range PolicyNames {
		t.AddRow(pol, report.FormatPercent(r.Utilization[pol]), report.FormatSeconds(r.Makespan[pol]))
	}
	return t.Render()
}
