package experiments

import (
	"fmt"
	"math/rand"

	"nimblock/internal/apps"
	"nimblock/internal/metrics"
	"nimblock/internal/optsched"
	"nimblock/internal/report"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// OptimalityResult measures the price of online scheduling: Nimblock
// never sees the future, while DML-style offline solvers know every
// arrival in advance. Instances are kept small enough to enumerate the
// full eager-schedule space, exactly the regime where the paper says
// ILP-based solutions are viable.
type OptimalityResult struct {
	// PerInstance lists, per random instance, [offline-best, nimblock]
	// mean response seconds.
	PerInstance [][2]float64
	// MeanGap is the average nimblock/offline-best ratio.
	MeanGap float64
	// Orders is the total number of schedules enumerated.
	Orders int
}

// smallPool holds the 3-task chains, keeping interleaving counts tiny.
var smallPool = []string{apps.LeNet, apps.Rendering3D, apps.DigitRecognition}

// Optimality compares Nimblock against the exhaustive offline best on a
// set of small random instances.
func Optimality(cfg Config) (*OptimalityResult, error) {
	out := &OptimalityResult{}
	instances := cfg.Sequences
	if instances > 6 {
		instances = 6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var gaps []float64
	for i := 0; i < instances; i++ {
		nJobs := 2 + rng.Intn(2) // 2-3 jobs of 3 tasks: <= 1680 orders
		var jobs []optsched.Job
		var seq workload.Sequence // the same jobs, unsorted, for online replay
		for j := 0; j < nJobs; j++ {
			name := smallPool[rng.Intn(len(smallPool)-1)] // exclude DR for runtime
			ev := workload.Event{
				App:      name,
				Batch:    1 + rng.Intn(5),
				Priority: 3,
				Arrival:  sim.Time(rng.Intn(500)) * sim.Time(sim.Millisecond),
			}
			seq = append(seq, ev)
			jobs = append(jobs, optsched.Job{Graph: cachedGraph(name), Batch: ev.Batch, Priority: ev.Priority, Arrival: ev.Arrival})
		}
		best, visited, err := optsched.Best(jobs, cfg.HV, 2000)
		if err != nil {
			return nil, fmt.Errorf("optimality instance %d: %w", i, err)
		}
		out.Orders += visited
		_, res, err := runBoard(cfg, "Nimblock", seq)
		if err != nil {
			return nil, err
		}
		var total sim.Duration
		for _, r := range res {
			total += r.Response
		}
		nim := total / sim.Duration(len(res))
		out.PerInstance = append(out.PerInstance, [2]float64{best.MeanResponse.Seconds(), nim.Seconds()})
		gaps = append(gaps, float64(nim)/float64(best.MeanResponse))
	}
	out.MeanGap = metrics.Mean(gaps)
	return out, nil
}

// Render prints the study.
func (r *OptimalityResult) Render() string {
	t := &report.Table{
		Title:  "Optimality study: online Nimblock vs exhaustive offline eager schedule",
		Header: []string{"Instance", "Offline best", "Nimblock", "Gap"},
	}
	for i, p := range r.PerInstance {
		t.AddRow(fmt.Sprintf("%d", i+1),
			report.FormatSeconds(p[0]), report.FormatSeconds(p[1]),
			report.FormatFactor(p[1]/p[0]))
	}
	t.AddRow("mean gap", "", "", report.FormatFactor(r.MeanGap))
	return t.Render()
}
