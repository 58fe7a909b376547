package experiments

import (
	"fmt"

	"nimblock/internal/faults"
	"nimblock/internal/hv"
	"nimblock/internal/metrics"
	"nimblock/internal/report"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// CheckpointVariant is one checkpoint configuration swept by the
// ablation: a save period and a default per-task state size (the knobs
// that set the overhead side of the overhead-vs-responsiveness
// trade-off), plus the disabled control.
type CheckpointVariant struct {
	Name string
	Ckpt hv.CheckpointConfig
}

// CheckpointVariants sweeps the save period at the default state size,
// then the state size at the default period, with a disabled control.
// The two axes expose both sides of the cost model: shorter periods
// save more often (less progress lost per kill, more CAP overhead) and
// bigger states make every save and restore proportionally slower.
var CheckpointVariants = []CheckpointVariant{
	{Name: "off", Ckpt: hv.CheckpointConfig{}},
	{Name: "25ms/1MiB", Ckpt: hv.CheckpointConfig{Enabled: true, Period: 25 * sim.Millisecond}},
	{Name: "50ms/1MiB", Ckpt: hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}},
	{Name: "200ms/1MiB", Ckpt: hv.CheckpointConfig{Enabled: true, Period: 200 * sim.Millisecond}},
	{Name: "50ms/64KiB", Ckpt: hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond, StateBytes: 64 << 10}},
	{Name: "50ms/8MiB", Ckpt: hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond, StateBytes: 8 << 20}},
}

// CheckpointPolicies compares plain Nimblock (boundary preemption only)
// against the NimblockCheckpoint variant (mid-batch SLO rescue).
var CheckpointPolicies = []string{"Nimblock", "NimblockCheckpoint"}

// CheckpointCell aggregates one (variant, policy) combination.
type CheckpointCell struct {
	// MeanResponse is over all applications; HighPrioResponse over the
	// priority-9 tier only — the tier the rescue pass protects.
	MeanResponse     float64
	HighPrioResponse float64
	// Recovery accounting pooled across sequences.
	WatchdogKills    int
	ResumedItems     int
	CheckpointSaves  int
	CheckpointFaults int
	// WastedWork is fabric seconds burned on lost progress; SavedWork is
	// fabric seconds restores carried over; CheckpointOverhead is wall
	// seconds spent moving state through the CAP.
	WastedWork         float64
	SavedWork          float64
	CheckpointOverhead float64
}

// CheckpointResult reports the sweep: variant name -> policy -> cell.
type CheckpointResult struct {
	Cells map[string]map[string]CheckpointCell
}

// checkpointPlan slows and hangs items at fixed rates so the watchdog
// fires throughout the run: the scenario where resuming from a
// checkpoint (instead of re-executing from scratch) pays.
func checkpointPlan(seed int64) string {
	return fmt.Sprintf("seed %d\nslow prob=0.3 factor=4\nhang prob=0.03\n", seed)
}

// CheckpointAblation reruns the stress stimulus under every checkpoint
// variant and both policies with a slow+hang fault plan and the
// watchdog armed. Overhead (saves, CAP seconds) should rise as periods
// shrink and states grow; wasted work and high-priority response should
// fall — the overhead-vs-responsiveness trade-off the subsystem buys.
func CheckpointAblation(cfg Config) (*CheckpointResult, error) {
	factory, err := faults.ParsePlan(checkpointPlan(cfg.Seed))
	if err != nil {
		return nil, err
	}
	injector, err := factory.Factory()
	if err != nil {
		return nil, err
	}

	type cell struct {
		cfg Config
		v   CheckpointVariant
		pol string
	}
	var cells []cell
	for _, v := range CheckpointVariants {
		c := cfg
		c.HV.Board.NewInjector = injector
		c.HV.WatchdogFactor = chaosWatchdogFactor
		c.HV.WatchdogGrace = chaosWatchdogGrace
		c.HV.Checkpoint = v.Ckpt
		for _, pol := range CheckpointPolicies {
			cells = append(cells, cell{c, v, pol})
		}
	}
	type ckptRun struct {
		res []hv.Result
		rec hv.RecoveryStats
	}
	seqs := cfg.sequences(workload.Spec{Scenario: workload.Stress, Events: cfg.Events})
	runs, err := sweep(cfg, cells, seqs, func(c cell, si int, seq workload.Sequence) (ckptRun, error) {
		h, res, err := runBoard(c.cfg, c.pol, seq)
		if err != nil {
			return ckptRun{}, fmt.Errorf("checkpoint variant %s, sequence %d, policy %s: %w", c.v.Name, si, c.pol, err)
		}
		return ckptRun{res: res, rec: h.Recovery()}, nil
	})
	if err != nil {
		return nil, err
	}

	out := &CheckpointResult{Cells: map[string]map[string]CheckpointCell{}}
	for ci, c := range cells {
		var cell CheckpointCell
		var responses, high []float64
		for _, run := range runs[ci] {
			for _, r := range run.res {
				responses = append(responses, r.Response.Seconds())
				if r.Priority == 9 {
					high = append(high, r.Response.Seconds())
				}
			}
			cell.WatchdogKills += run.rec.WatchdogKills
			cell.ResumedItems += run.rec.ResumedItems
			cell.CheckpointSaves += run.rec.CheckpointSaves
			cell.CheckpointFaults += run.rec.CheckpointFaults
			cell.WastedWork += run.rec.WastedWork.Seconds()
			cell.SavedWork += run.rec.SavedWork.Seconds()
			cell.CheckpointOverhead += run.rec.CheckpointOverhead.Seconds()
		}
		cell.MeanResponse = metrics.Mean(responses)
		cell.HighPrioResponse = metrics.Mean(high)
		if out.Cells[c.v.Name] == nil {
			out.Cells[c.v.Name] = map[string]CheckpointCell{}
		}
		out.Cells[c.v.Name][c.pol] = cell
	}
	return out, nil
}

// Render prints one table per policy: rows sweep the variants, columns
// report the trade-off (response vs overhead vs salvage).
func (r *CheckpointResult) Render() string {
	out := ""
	for _, pol := range CheckpointPolicies {
		t := &report.Table{
			Title: fmt.Sprintf("Checkpoint ablation: %s (stress, slow+hang plan)", pol),
			Header: []string{
				"Period/State", "Mean resp", "Prio-9 resp", "Kills", "Resumed",
				"Saved", "Wasted", "Overhead",
			},
		}
		for _, v := range CheckpointVariants {
			c := r.Cells[v.Name][pol]
			t.AddRow(v.Name,
				report.FormatSeconds(c.MeanResponse),
				report.FormatSeconds(c.HighPrioResponse),
				fmt.Sprintf("%d", c.WatchdogKills),
				fmt.Sprintf("%d", c.ResumedItems),
				report.FormatSeconds(c.SavedWork),
				report.FormatSeconds(c.WastedWork),
				report.FormatSeconds(c.CheckpointOverhead),
			)
		}
		out += t.Render() + "\n"
	}
	return out
}
