package experiments

import (
	"fmt"

	"nimblock/internal/hv"
	"nimblock/internal/metrics"
	"nimblock/internal/report"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// PreemptVariant is one preemption mechanism under study. Capture is
// the CAP time to stream one task's state out (and, on resume, back in);
// zero selects the paper's batch-boundary preemption.
type PreemptVariant struct {
	Name    string
	Capture sim.Duration
}

// PreemptVariants compares the paper's batch-boundary preemption with
// on-demand checkpointing at three hardware cost points: near-free state
// registers (the future-work hardware), realistic capture through
// configuration readback (~10 ms), and capture as expensive as a full
// reconfiguration (~80 ms).
var PreemptVariants = []PreemptVariant{
	{Name: "batch-boundary"},
	{Name: "checkpoint-1ms", Capture: sim.Millisecond},
	{Name: "checkpoint-10ms", Capture: 10 * sim.Millisecond},
	{Name: "checkpoint-80ms", Capture: 80 * sim.Millisecond},
}

// PreemptStudyResult quantifies the batch-vs-checkpoint design choice
// (Section 3.2 motivates batch-preemption; the future work asks what
// finer-granularity preemption hardware would buy).
type PreemptStudyResult struct {
	// MeanResponse maps variant name -> mean response seconds (stress).
	MeanResponse map[string]float64
	// ErrorPoint10 maps variant name -> 10% deadline error point
	// (high-priority apps).
	ErrorPoint10 map[string]float64
	// TightViolations maps variant name -> violation rate at Ds=1.
	TightViolations map[string]float64
}

// PreemptStudy runs the stress stimulus under Nimblock with each
// preemption mechanism.
func PreemptStudy(cfg Config) (*PreemptStudyResult, error) {
	out := &PreemptStudyResult{
		MeanResponse:    map[string]float64{},
		ErrorPoint10:    map[string]float64{},
		TightViolations: map[string]float64{},
	}
	spec := metrics.DefaultDeadlineSpec()
	for _, v := range PreemptVariants {
		c := cfg
		if v.Capture > 0 {
			// Size the state so one transfer takes Capture through the CAP.
			// Saves are on demand only (no Period): a preemption request
			// snapshots at the latest passed preemption point.
			bytes := int64(v.Capture.Seconds() * cfg.HV.Board.CAPBytesPerSec)
			c.HV.Checkpoint = hv.CheckpointConfig{Enabled: true, StateBytes: bytes}
		}
		data, err := RunScenario(c, workload.Stress, []string{"Nimblock"})
		if err != nil {
			return nil, fmt.Errorf("preempt study %s: %w", v.Name, err)
		}
		rs := data.Results["Nimblock"]
		out.MeanResponse[v.Name] = meanResponse(rs)
		pts, err := metrics.DeadlineSweep(rs, data.SingleSlot, spec)
		if err != nil {
			return nil, err
		}
		out.ErrorPoint10[v.Name] = metrics.ErrorPoint(pts, 0.10)
		out.TightViolations[v.Name] = pts[0].ViolationRate
	}
	return out, nil
}

// Render prints the study.
func (r *PreemptStudyResult) Render() string {
	t := &report.Table{
		Title:  "Preemption mechanism study: batch-boundary vs checkpointing (stress, Nimblock)",
		Header: []string{"Mechanism", "Mean response", "Ds=1 violations", "10% error point"},
	}
	for _, v := range PreemptVariants {
		ep := "never"
		if e := r.ErrorPoint10[v.Name]; e >= 0 {
			ep = report.FormatFloat(e)
		}
		t.AddRow(v.Name,
			report.FormatSeconds(r.MeanResponse[v.Name]),
			report.FormatPercent(r.TightViolations[v.Name]),
			ep)
	}
	return t.Render()
}
