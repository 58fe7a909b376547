package experiments

import (
	"fmt"

	"nimblock/internal/cluster"
	"nimblock/internal/hv"
	"nimblock/internal/metrics"
	"nimblock/internal/obs"
	"nimblock/internal/report"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// HeteroRatios sweeps the heterogeneity ratio: the latency scale of the
// fleet's edge boards relative to the reference board. Ratio 1 is a
// homogeneous control (every board reference-speed); ratio 2 makes the
// edge boards half-speed.
var HeteroRatios = []float64{1, 2}

// HeteroPolicyNames is the policy axis of the heterogeneity sweep: the
// paper's five algorithms plus the energy- and fairness-aware variant.
var HeteroPolicyNames = []string{"Baseline", "FCFS", "PREMA", "RR", "Nimblock", "NimblockEnergy"}

// The fleet shape: one reference board (the configured slot count) and
// two narrower edge boards whose latency scale is the swept ratio.
const (
	heteroBoards    = 3
	heteroEdgeSlots = 4
)

// The power model applied to every board in the sweep, in watts per
// slot: static leakage burns on every usable slot for the whole run,
// active power only while a slot is reconfiguring or computing.
const (
	HeteroStaticWatts = 2.5
	HeteroActiveWatts = 1.5
)

// heteroTenants alternate over submissions with equal weights, so
// Jain's index over delivered service reads how evenly each policy
// splits the fabric between two equally-entitled tenants.
var heteroTenants = [2]string{"tenant-0", "tenant-1"}

// HeteroCell aggregates one (ratio, policy) combination.
type HeteroCell struct {
	// JoulesPerBatch is total fleet energy over completed submissions.
	JoulesPerBatch float64
	// StaticJoules and ActiveJoules split the fleet total.
	StaticJoules, ActiveJoules float64
	// Jain is Jain's fairness index over per-tenant delivered service,
	// pooled across the cell's runs.
	Jain float64
	// MeanResponse and P99Response are in seconds.
	MeanResponse, P99Response float64
	// Completed counts submissions (every one completes: no admission,
	// no faults in this sweep).
	Completed int
}

// HeteroResult reports the heterogeneity sweep.
type HeteroResult struct {
	// Cells maps ratio -> policy -> cell.
	Cells map[float64]map[string]HeteroCell
}

// heteroBoardConfigs builds the fleet for one ratio on top of the
// harness board config: board 0 is the reference, boards 1..N-1 are
// edge boards with fewer slots and the swept latency scale. Every
// board gets the sweep's power model.
func heteroBoardConfigs(base hv.Config, ratio float64) []hv.Config {
	cfgs := make([]hv.Config, heteroBoards)
	for i := range cfgs {
		c := base
		c.Board.StaticWattsPerSlot = HeteroStaticWatts
		c.Board.ActiveWattsPerSlot = HeteroActiveWatts
		if i > 0 {
			c.Board.Slots = heteroEdgeSlots
			c.Board.LatencyScale = ratio
		}
		cfgs[i] = c
	}
	return cfgs
}

// Hetero sweeps heterogeneity ratio x policy over a three-board fleet
// with a per-slot power model, reporting joules per batch, Jain's
// fairness index over two equally-weighted tenants, and response
// latency. Placement is hetero-aware (scores fold in each board's
// latency scale and width); within a board the swept policy schedules.
func Hetero(cfg Config) (*HeteroResult, error) {
	type cell struct {
		ratio float64
		pol   string
	}
	var cells []cell
	for _, ratio := range HeteroRatios {
		for _, pol := range HeteroPolicyNames {
			cells = append(cells, cell{ratio, pol})
		}
	}
	type heteroRun struct {
		energy    hv.EnergyStats
		service   map[string]sim.Duration
		responses []float64
	}
	tenants := func(i int) cluster.SubmitOptions {
		return cluster.SubmitOptions{Tenant: heteroTenants[i%2], Weight: 1}
	}
	seqs := cfg.sequences(workload.Spec{Scenario: workload.Stress, Events: cfg.Events})
	runs, err := sweep(cfg, cells, seqs, func(c cell, si int, seq workload.Sequence) (heteroRun, error) {
		cl, res, sink, err := runCluster(cfg, cluster.Config{
			Boards:       heteroBoards,
			HV:           cfg.HV,
			BoardConfigs: heteroBoardConfigs(cfg.HV, c.ratio),
			Dispatch:     cluster.HeteroAware,
			Seed:         cfg.Seed,
		}, c.pol, seq, tenants)
		if err != nil {
			return heteroRun{}, fmt.Errorf("hetero ratio %v, policy %s, sequence %d: %w", c.ratio, c.pol, si, err)
		}
		// Run drains to the makespan, so the energy sample integrates
		// static power over the time the batch actually needed.
		run := heteroRun{energy: cl.Energy(), service: cl.TenantServices()}
		for _, r := range res {
			run.responses = append(run.responses, r.Response.Seconds())
		}
		if m, ok := sink.(*obs.Metrics); ok {
			m.RecordEnergy(run.energy.StaticJoules, run.energy.ActiveJoules)
			m.RecordFairness(metrics.JainIndex(serviceVector(run.service)))
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}

	out := &HeteroResult{Cells: map[float64]map[string]HeteroCell{}}
	for ci, c := range cells {
		var cell HeteroCell
		var responses []float64
		service := map[string]sim.Duration{}
		for _, run := range runs[ci] {
			cell.StaticJoules += run.energy.StaticJoules
			cell.ActiveJoules += run.energy.ActiveJoules
			cell.Completed += len(run.responses)
			responses = append(responses, run.responses...)
			for tenant, d := range run.service {
				service[tenant] += d
			}
		}
		if cell.Completed > 0 {
			cell.JoulesPerBatch = (cell.StaticJoules + cell.ActiveJoules) / float64(cell.Completed)
		}
		cell.Jain = metrics.JainIndex(serviceVector(service))
		cell.MeanResponse = metrics.Mean(responses)
		cell.P99Response = metrics.Percentile(responses, 99)
		if out.Cells[c.ratio] == nil {
			out.Cells[c.ratio] = map[string]HeteroCell{}
		}
		out.Cells[c.ratio][c.pol] = cell
	}
	return out, nil
}

// serviceVector flattens a per-tenant service map into the fixed tenant
// order (stable input for Jain's index).
func serviceVector(svc map[string]sim.Duration) []float64 {
	out := make([]float64, 0, len(heteroTenants))
	for _, tenant := range heteroTenants {
		out = append(out, svc[tenant].Seconds())
	}
	return out
}

// Render prints one table per heterogeneity ratio.
func (r *HeteroResult) Render() string {
	out := ""
	for _, ratio := range HeteroRatios {
		t := &report.Table{
			Title: fmt.Sprintf("Heterogeneous fleet: edge boards %dx slots at %gx latency (stress, %d boards, hetero-aware dispatch, %g/%g W per slot static/active)",
				heteroEdgeSlots, ratio, heteroBoards, HeteroStaticWatts, HeteroActiveWatts),
			Header: []string{"Policy", "J/batch", "Static J", "Active J", "Jain", "Mean resp", "p99 resp"},
		}
		for _, pol := range HeteroPolicyNames {
			c := r.Cells[ratio][pol]
			t.AddRow(
				pol,
				fmt.Sprintf("%.1f", c.JoulesPerBatch),
				fmt.Sprintf("%.0f", c.StaticJoules),
				fmt.Sprintf("%.0f", c.ActiveJoules),
				fmt.Sprintf("%.3f", c.Jain),
				report.FormatSeconds(c.MeanResponse),
				report.FormatSeconds(c.P99Response),
			)
		}
		out += t.Render() + "\n"
	}
	return out
}
