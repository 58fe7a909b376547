package experiments

import (
	"fmt"

	"nimblock/internal/cluster"
	"nimblock/internal/metrics"
	"nimblock/internal/report"
	"nimblock/internal/workload"
)

// ScaleOutBoards is the cluster-size sweep.
var ScaleOutBoards = []int{1, 2, 4, 8}

// scaleOutDispatches compared in the study.
var scaleOutDispatches = []cluster.Dispatch{
	cluster.RoundRobin, cluster.LeastLoaded, cluster.LeastPending, cluster.RandomBoard,
}

// ScaleOutResult quantifies multi-FPGA scale-out — the virtualization
// property the paper's introduction lists but leaves to future work.
type ScaleOutResult struct {
	// MeanResponse maps boards -> dispatch -> mean response seconds of a
	// stress-scenario burst under Nimblock per board.
	MeanResponse map[int]map[cluster.Dispatch]float64
}

// ScaleOut sweeps cluster sizes and dispatch policies over the stress
// stimulus. Every (cluster size, dispatch, sequence) cluster simulation
// is independent and fans across the worker pool; per-cell responses are
// reassembled in sequence order so the means are byte-identical to the
// serial path.
func ScaleOut(cfg Config) (*ScaleOutResult, error) {
	type cell struct {
		boards int
		d      cluster.Dispatch
	}
	var cells []cell
	for _, boards := range ScaleOutBoards {
		for _, d := range scaleOutDispatches {
			cells = append(cells, cell{boards, d})
		}
	}
	seqs := cfg.sequences(workload.Spec{Scenario: workload.Stress, Events: cfg.Events})
	runs, err := sweep(cfg, cells, seqs, func(c cell, si int, seq workload.Sequence) ([]float64, error) {
		ccfg := cluster.Config{Boards: c.boards, HV: cfg.HV, Dispatch: c.d, Seed: cfg.Seed}
		_, res, _, err := runCluster(cfg, ccfg, "Nimblock", seq, nil)
		if err != nil {
			return nil, fmt.Errorf("scale-out %d boards, %v, sequence %d: %w", c.boards, c.d, si, err)
		}
		resp := make([]float64, len(res))
		for i, r := range res {
			resp[i] = r.Response.Seconds()
		}
		return resp, nil
	})
	if err != nil {
		return nil, err
	}
	out := &ScaleOutResult{MeanResponse: map[int]map[cluster.Dispatch]float64{}}
	for ci, c := range cells {
		var all []float64
		for _, resp := range runs[ci] {
			all = append(all, resp...)
		}
		if out.MeanResponse[c.boards] == nil {
			out.MeanResponse[c.boards] = map[cluster.Dispatch]float64{}
		}
		out.MeanResponse[c.boards][c.d] = metrics.Mean(all)
	}
	return out, nil
}

// Render prints the sweep.
func (r *ScaleOutResult) Render() string {
	t := &report.Table{
		Title:  "Scale-out study: mean response (s) by cluster size and dispatch (stress, Nimblock per board)",
		Header: []string{"Boards", "round-robin", "least-loaded", "least-pending", "random"},
	}
	for _, boards := range ScaleOutBoards {
		row := []any{fmt.Sprintf("%d", boards)}
		for _, d := range scaleOutDispatches {
			row = append(row, report.FormatSeconds(r.MeanResponse[boards][d]))
		}
		t.AddRow(row...)
	}
	return t.Render()
}
