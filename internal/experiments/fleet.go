package experiments

import (
	"fmt"
	"time"

	"nimblock/internal/fleet"
	"nimblock/internal/metrics"
	"nimblock/internal/obs"
	"nimblock/internal/report"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// FleetScales is the scale-up axis of the fleet sweep: board count and
// offered arrival rate both multiply by each entry, so per-board load
// stays constant while the fleet grows two orders of magnitude.
var FleetScales = []int{1, 10, 100}

// fleetQuickScales bounds the sweep for quick runs and CI smokes.
var fleetQuickScales = []int{1, 4}

// The scale-1 fleet shape: a small cluster at a gentle open-loop rate.
// Batches are capped like the load sweeps so offered work scales with
// the arrival rate rather than a heavy tail of giant batches.
const (
	fleetBaseBoards = 4
	fleetBaseRate   = 0.125 // Poisson arrivals per second at scale 1
	fleetBatchCap   = 4
	fleetShardCap   = 8
	fleetEpoch      = 100 * sim.Millisecond
)

// FleetCell aggregates one scale point.
type FleetCell struct {
	Scale    int
	Boards   int
	Shards   int
	Rate     float64
	Arrivals int
	Done     int
	Shed     int
	// MeanResponse and P99Response are in seconds over completed
	// submissions.
	MeanResponse, P99Response float64
	// Makespan is the simulated quiescence time in seconds.
	Makespan float64
	// EventsFired counts simulator events across every shard engine;
	// EventsPerSec divides by the cell's wall-clock runtime (the
	// throughput figure the bench gate tracks).
	EventsFired  int64
	EventsPerSec float64
	Epochs       int
}

// FleetResult reports the fleet scale-up sweep.
type FleetResult struct {
	Cells []FleetCell
}

// Fleet sweeps the two-level sharded scheduler across a 100x growth in
// board count and arrival rate. Workloads are streamed (constant
// generator memory however many arrivals a cell offers); each cell
// routes over hetero/load-aware fleet placement into Nimblock-scheduled
// boards and reports p99 latency and simulator throughput. The registry
// (when non-nil, e.g. under -serve) receives the largest cell's
// per-shard instruments.
func Fleet(cfg Config, reg *obs.Registry) (*FleetResult, error) {
	nimblock, err := Policy("Nimblock")
	if err != nil {
		return nil, err
	}
	scales := FleetScales
	if cfg.Events < workload.EventsPerSequence {
		scales = fleetQuickScales
	}
	out := &FleetResult{}
	for si, scale := range scales {
		boards := fleetBaseBoards * scale
		shards := boards
		if shards > fleetShardCap {
			shards = fleetShardCap
		}
		rate := fleetBaseRate * float64(scale)
		arrivals := cfg.Sequences * cfg.Events * scale
		var cellReg *obs.Registry
		if reg != nil && si == len(scales)-1 {
			cellReg = reg
		}
		f, err := fleet.New(fleet.Config{
			Shards:  shards,
			Boards:  boards,
			HV:      cfg.HV,
			Epoch:   fleetEpoch,
			Workers: cfg.Workers,
			// Shed instead of stalling if a cell is offered more than it
			// can hold in flight; sized so the sweep's rates never hit it.
			MaxOutstanding: boards * 64,
			Registry:       cellReg,
		}, nimblock)
		if err != nil {
			return nil, err
		}
		stream := workload.NewStream(workload.Spec{
			PoissonRate: rate,
			BatchCap:    fleetBatchCap,
			Events:      arrivals,
		}, workload.DeriveSeed(cfg.Seed, scale))
		start := time.Now()
		results, err := f.Run(stream)
		if err != nil {
			return nil, fmt.Errorf("fleet scale %dx: %w", scale, err)
		}
		wall := time.Since(start).Seconds()
		st := f.Stats()
		eventsFired.Add(st.EventsFired)
		var responses []float64
		for _, r := range results {
			if !r.Rejected {
				responses = append(responses, r.Response.Seconds())
			}
		}
		cell := FleetCell{
			Scale:        scale,
			Boards:       boards,
			Shards:       shards,
			Rate:         rate,
			Arrivals:     st.Submitted,
			Done:         st.Completed,
			Shed:         st.Rejected,
			MeanResponse: metrics.Mean(responses),
			P99Response:  metrics.Percentile(responses, 99),
			Makespan:     st.Makespan.Seconds(),
			EventsFired:  st.EventsFired,
			Epochs:       st.Epochs,
		}
		if wall > 0 {
			cell.EventsPerSec = float64(st.EventsFired) / wall
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// Render prints the sweep as one table, one row per scale point.
func (r *FleetResult) Render() string {
	t := &report.Table{
		Title: fmt.Sprintf("Fleet scale-up: sharded two-level scheduling, streamed Poisson arrivals (base %d boards at %g/s, batch cap %d, epoch %v)",
			fleetBaseBoards, fleetBaseRate, fleetBatchCap, fleetEpoch),
		Header: []string{"Scale", "Boards", "Shards", "Rate/s", "Arrivals", "Done", "Shed", "Mean resp", "p99 resp", "Events", "Ev/s"},
	}
	for _, c := range r.Cells {
		t.AddRow(
			fmt.Sprintf("%dx", c.Scale),
			fmt.Sprintf("%d", c.Boards),
			fmt.Sprintf("%d", c.Shards),
			fmt.Sprintf("%g", c.Rate),
			fmt.Sprintf("%d", c.Arrivals),
			fmt.Sprintf("%d", c.Done),
			fmt.Sprintf("%d", c.Shed),
			report.FormatSeconds(c.MeanResponse),
			report.FormatSeconds(c.P99Response),
			fmt.Sprintf("%d", c.EventsFired),
			fmt.Sprintf("%.2g", c.EventsPerSec),
		)
	}
	return t.Render()
}
