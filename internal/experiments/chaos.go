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

// ChaosRates are the per-attempt reconfiguration fault probabilities
// swept by the chaos experiment; 0 is the fault-free control.
var ChaosRates = []float64{0, 0.05, 0.1, 0.2}

// ChaosCell aggregates one (fault rate, policy) combination across
// every sequence of the stimulus.
type ChaosCell struct {
	// MeanResponse is the mean response time in seconds; the spread
	// against the rate-0 row is the price of the injected faults.
	MeanResponse float64
	// FaultsInjected, Retries, and Recovered pool the recovery
	// accounting of all sequences.
	FaultsInjected int
	Retries        int
	Recovered      int
	// WatchdogKills and SlotsOffline count the heavier recovery paths
	// (uniform transient faults exercise neither; plan-driven scenarios
	// do).
	WatchdogKills int
	SlotsOffline  int
	// WastedWork is fabric seconds burned on lost executions.
	WastedWork float64
	// EffectiveSlots is the mean time-weighted usable slot count.
	EffectiveSlots float64
}

// ChaosResult reports the fault-rate sweep.
type ChaosResult struct {
	// Cells maps fault rate -> policy -> aggregate.
	Cells map[float64]map[string]ChaosCell
}

// Chaos reruns the stress stimulus under every policy while injecting
// uniform-random reconfiguration faults at each swept rate, with the
// recovery stack (retries with backoff, watchdog) armed. Every run must
// complete: the experiment demonstrates that fault handling degrades
// response time smoothly instead of wedging any scheduler. All (rate,
// policy, sequence) runs fan across the worker pool; each run builds its
// own engine and injector, and aggregation follows input order so the
// sweep is byte-identical to the serial path.
func Chaos(cfg Config) (*ChaosResult, error) {
	type cell struct {
		cfg  Config
		rate float64
		pol  string
	}
	var cells []cell
	for _, rate := range ChaosRates {
		c := cfg
		if rate > 0 {
			plan := faults.Uniform(rate, cfg.Seed)
			factory, err := plan.Factory()
			if err != nil {
				return nil, err
			}
			c.HV.Board.NewInjector = factory
			// Enough retries that a run never fails outright at the
			// swept rates; backoff still makes each fault cost time.
			c.HV.Board.MaxRetries = 25
		}
		c.HV.WatchdogFactor = chaosWatchdogFactor
		c.HV.WatchdogGrace = chaosWatchdogGrace
		for _, pol := range PolicyNames {
			cells = append(cells, cell{c, rate, pol})
		}
	}
	type chaosRun struct {
		res   []hv.Result
		rec   hv.RecoveryStats
		until sim.Time
	}
	seqs := cfg.sequences(workload.Spec{Scenario: workload.Stress, Events: cfg.Events})
	runs, err := sweep(cfg, cells, seqs, func(c cell, si int, seq workload.Sequence) (chaosRun, error) {
		h, res, err := runBoard(c.cfg, c.pol, seq)
		if err != nil {
			return chaosRun{}, fmt.Errorf("chaos rate %v, sequence %d, policy %s: %w", c.rate, si, c.pol, err)
		}
		return chaosRun{res: res, rec: h.Recovery(), until: h.Now()}, nil
	})
	if err != nil {
		return nil, err
	}

	out := &ChaosResult{Cells: map[float64]map[string]ChaosCell{}}
	for ci, c := range cells {
		var cell ChaosCell
		var responses, effective []float64
		for _, run := range runs[ci] {
			for _, r := range run.res {
				responses = append(responses, r.Response.Seconds())
			}
			cell.FaultsInjected += run.rec.FaultsInjected
			cell.Retries += run.rec.Retries
			cell.Recovered += run.rec.Recovered
			cell.WatchdogKills += run.rec.WatchdogKills
			cell.SlotsOffline += run.rec.SlotsOffline
			cell.WastedWork += run.rec.WastedWork.Seconds()
			effective = append(effective, metrics.EffectiveSlots(run.rec.Timeline, run.until))
		}
		cell.MeanResponse = metrics.Mean(responses)
		cell.EffectiveSlots = metrics.Mean(effective)
		if out.Cells[c.rate] == nil {
			out.Cells[c.rate] = map[string]ChaosCell{}
		}
		out.Cells[c.rate][c.pol] = cell
	}
	return out, nil
}

const (
	chaosWatchdogFactor = 4
	chaosWatchdogGrace  = 50 * sim.Millisecond
)

// Render prints one table per swept rate.
func (r *ChaosResult) Render() string {
	out := ""
	for _, rate := range ChaosRates {
		t := &report.Table{
			Title: fmt.Sprintf("Chaos: fault rate %.0f%% (stress)", 100*rate),
			Header: []string{
				"Policy", "Mean resp", "Faults", "Recovered", "Wasted", "Eff. slots",
			},
		}
		for _, pol := range PolicyNames {
			c := r.Cells[rate][pol]
			t.AddRow(pol,
				report.FormatSeconds(c.MeanResponse),
				fmt.Sprintf("%d", c.FaultsInjected),
				fmt.Sprintf("%d", c.Recovered),
				report.FormatSeconds(c.WastedWork),
				fmt.Sprintf("%.1f", c.EffectiveSlots),
			)
		}
		out += t.Render() + "\n"
	}
	return out
}
