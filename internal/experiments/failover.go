package experiments

import (
	"fmt"

	"nimblock/internal/cluster"
	"nimblock/internal/faults"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/metrics"
	"nimblock/internal/report"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// FailoverMTBFs are the swept board mean-time-between-failures: every
// MTBF interval one board of the fleet crashes (round-robin over the
// boards) for as long as the workload is arriving.
var FailoverMTBFs = []sim.Duration{2 * sim.Second, 8 * sim.Second}

// FailoverRecoveries are the swept board recovery times (crash to
// scheduled revival; circuit-breaker backoff gates placement after).
var FailoverRecoveries = []sim.Duration{sim.Duration(sim.Second), 5 * sim.Second}

// failoverBoards is the fleet size of the failover study.
const failoverBoards = 3

// failoverCrashWindow bounds the crash schedule: boards stop failing
// after this much simulated time so every run eventually drains.
const failoverCrashWindow = 12 * sim.Second

// FailoverCell aggregates one (MTBF, recovery, checkpointing)
// combination across every sequence of the stimulus.
type FailoverCell struct {
	// Goodput is completed submissions per simulated second.
	Goodput float64
	// P99Response is the 99th-percentile response over completed
	// submissions, in seconds.
	P99Response float64
	// Completed and Failed pool the terminal outcomes; conservation
	// means they sum to the submission count.
	Completed, Failed int
	// Deaths and Recoveries pool the fleet's board-level events.
	Deaths, Recoveries int
	// WastedWork is fabric seconds lost to board deaths (net of
	// migrated progress); MigratedWork is the fabric seconds checkpoint
	// migration preserved, across MigratedItems items.
	WastedWork, MigratedWork float64
	MigratedItems            int
}

// FailoverResult reports the board-failure sweep.
type FailoverResult struct {
	// Cells maps MTBF -> recovery -> "on"/"off" (checkpointing) -> cell.
	Cells map[sim.Duration]map[sim.Duration]map[string]FailoverCell
}

// failoverCkptModes orders the checkpointing axis.
var failoverCkptModes = []string{"off", "on"}

// failoverSchedule builds the deterministic crash schedule for one run:
// a crash every MTBF, rotating over the boards, each recovering after
// the swept recovery time, until the crash window closes.
func failoverSchedule(mtbf sim.Duration, recovery sim.Duration) []faults.BoardEvent {
	var events []faults.BoardEvent
	board := 0
	for at := sim.Time(mtbf); at < sim.Time(failoverCrashWindow); at = at.Add(mtbf) {
		events = append(events, faults.BoardEvent{
			Kind:    faults.BoardCrash,
			Board:   board,
			At:      at,
			Recover: at.Add(recovery),
		})
		board = (board + 1) % failoverBoards
	}
	return events
}

// Failover reruns the stress stimulus on a three-board Nimblock cluster
// while boards crash on a fixed MTBF schedule, sweeping recovery time
// and checkpointing. Every submission must end as exactly completed or
// failed (conservation under board deaths); the checkpointed column
// must waste less fabric work than re-execution, which is the
// experiment's headline comparison.
func Failover(cfg Config) (*FailoverResult, error) {
	type cell struct {
		mtbf, rec sim.Duration
		mode      string
	}
	var cells []cell
	for _, mtbf := range FailoverMTBFs {
		for _, rec := range FailoverRecoveries {
			for _, mode := range failoverCkptModes {
				cells = append(cells, cell{mtbf, rec, mode})
			}
		}
	}
	type failoverRun struct {
		completed, failed int
		responses         []float64
		stats             health.Stats
		until             sim.Time
	}
	seqs := cfg.sequences(workload.Spec{Scenario: workload.Stress, Events: cfg.Events})
	runs, err := sweep(cfg, cells, seqs, func(c cell, si int, seq workload.Sequence) (failoverRun, error) {
		hcfg := cfg.HV
		if c.mode == "on" {
			hcfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
		}
		cl, res, _, err := runCluster(cfg, cluster.Config{
			Boards:      failoverBoards,
			HV:          hcfg,
			Dispatch:    cluster.LeastPending,
			Seed:        cfg.Seed,
			Health:      &health.Options{RetryBudget: 3},
			BoardFaults: failoverSchedule(c.mtbf, c.rec),
		}, "Nimblock", seq, nil)
		if err != nil {
			return failoverRun{}, fmt.Errorf("failover mtbf %v, recovery %v, ckpt %s, sequence %d: %w",
				c.mtbf, c.rec, c.mode, si, err)
		}
		run := failoverRun{stats: cl.FailoverStats(), until: cl.Now()}
		for _, r := range res {
			switch {
			case r.Failed:
				run.failed++
			default:
				run.completed++
				run.responses = append(run.responses, r.Response.Seconds())
			}
		}
		if run.completed+run.failed != len(seq) {
			return failoverRun{}, fmt.Errorf("failover mtbf %v, recovery %v, ckpt %s, sequence %d: %d+%d results for %d submissions",
				c.mtbf, c.rec, c.mode, si, run.completed, run.failed, len(seq))
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}

	out := &FailoverResult{Cells: map[sim.Duration]map[sim.Duration]map[string]FailoverCell{}}
	for ci, c := range cells {
		var cell FailoverCell
		var responses []float64
		var elapsed float64
		for _, run := range runs[ci] {
			cell.Completed += run.completed
			cell.Failed += run.failed
			cell.Deaths += run.stats.Deaths
			cell.Recoveries += run.stats.Recoveries
			cell.WastedWork += run.stats.WastedWork.Seconds()
			cell.MigratedWork += run.stats.MigratedWork.Seconds()
			cell.MigratedItems += run.stats.MigratedItems
			responses = append(responses, run.responses...)
			elapsed += sim.Duration(run.until).Seconds()
		}
		if elapsed > 0 {
			cell.Goodput = float64(cell.Completed) / elapsed
		}
		cell.P99Response = metrics.Percentile(responses, 99)
		if out.Cells[c.mtbf] == nil {
			out.Cells[c.mtbf] = map[sim.Duration]map[string]FailoverCell{}
		}
		if out.Cells[c.mtbf][c.rec] == nil {
			out.Cells[c.mtbf][c.rec] = map[string]FailoverCell{}
		}
		out.Cells[c.mtbf][c.rec][c.mode] = cell
	}
	return out, nil
}

// Render prints one table per MTBF.
func (r *FailoverResult) Render() string {
	out := ""
	for _, mtbf := range FailoverMTBFs {
		t := &report.Table{
			Title: fmt.Sprintf("Failover: board MTBF %v (stress, 3 boards, Nimblock, least-pending)", mtbf),
			Header: []string{
				"Recovery", "Ckpt", "Goodput/h", "p99 resp", "Done", "Failed", "Wasted", "Migrated",
			},
		}
		for _, rec := range FailoverRecoveries {
			for _, mode := range failoverCkptModes {
				c := r.Cells[mtbf][rec][mode]
				t.AddRow(
					fmt.Sprintf("%v", rec),
					mode,
					fmt.Sprintf("%.1f", c.Goodput*3600),
					report.FormatSeconds(c.P99Response),
					fmt.Sprintf("%d", c.Completed),
					fmt.Sprintf("%d", c.Failed),
					report.FormatSeconds(c.WastedWork),
					fmt.Sprintf("%s (%d items)", report.FormatSeconds(c.MigratedWork), c.MigratedItems),
				)
			}
		}
		out += t.Render() + "\n"
	}
	return out
}
