// Package saturate identifies application saturation points and goal
// numbers for Nimblock's slot allocation.
//
// The paper generates performance estimates across slot allocations with
// DML's integer linear programming formulation (solved by Gurobi), which
// accounts for pipelining and reconfiguration time, then picks the point
// where adding slots stops helping. Gurobi is unavailable here; instead we
// estimate makespans by running the application alone through the actual
// hypervisor mechanics — a greedy list-scheduling execution on k slots
// with the same CAP serialization and (optionally) cross-batch pipelining.
// This is at least as faithful to the running system as an external ILP:
// the analysis consumes HLS estimates only, exactly like the paper's flow,
// and runs off the critical path (results are cached per application and
// batch size).
package saturate

import (
	"fmt"

	"nimblock/internal/fpga"
	"nimblock/internal/hls"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// GoalThreshold is the marginal-improvement cutoff defining the
// saturation point: if one more slot improves estimated makespan by less
// than this fraction, the application is saturated.
const GoalThreshold = 0.05

// UsefulThreshold is the cutoff below which an extra slot is considered
// to provide no benefit at all.
const UsefulThreshold = 0.005

// Result is the saturation analysis for one (application, batch) pair.
type Result struct {
	// Makespans[k-1] is the estimated makespan with k slots.
	Makespans []sim.Duration
	// Goal is the saturation point: the slot count beyond which marginal
	// improvement drops under GoalThreshold.
	Goal int
	// MaxUseful is the largest slot count that still improves makespan
	// by at least UsefulThreshold over one fewer slot.
	MaxUseful int
}

// greedy is the internal list-scheduling policy used for estimation: it
// configures the application's configurable tasks onto free slots in
// topological order, with pipelining per the flag.
type greedy struct{ pipe bool }

func (g *greedy) Name() string     { return "saturate-greedy" }
func (g *greedy) Pipelining() bool { return g.pipe }

// NextWake implements sched.Waker: the policy never reads the clock,
// so only a world change can change its decision.
func (g *greedy) NextWake(sched.World) sim.Time { return sim.Never }

func (g *greedy) Schedule(w sched.World, why sched.Reason) {
	free := w.FreeSlots()
	idx := 0
	for _, a := range w.Apps() {
		for _, t := range a.ConfigurableTasks() {
			if idx >= len(free) {
				return
			}
			if err := w.Reconfigure(free[idx], a, t); err != nil {
				return
			}
			idx++
		}
	}
}

// estimateGraph clones the task-graph with HLS-estimated latencies, so
// the analysis never sees ground truth.
func estimateGraph(g *taskgraph.Graph, report *hls.Report) (*taskgraph.Graph, error) {
	b := taskgraph.NewBuilder(g.Name())
	for i := 0; i < g.NumTasks(); i++ {
		b.AddTask(g.Task(i).Name, report.Task(i).Latency)
	}
	for i := 0; i < g.NumTasks(); i++ {
		for _, succ := range g.Succ(i) {
			b.AddEdge(i, succ)
		}
	}
	return b.Build()
}

// Makespan estimates the response time of the application running alone
// on k slots of the given board.
func Makespan(g *taskgraph.Graph, report *hls.Report, batch, k int, board fpga.Config, pipelining bool) (sim.Duration, error) {
	est, err := estimateGraph(g, report)
	if err != nil {
		return 0, err
	}
	return runAlone(est, batch, k, board, &greedy{pipe: pipelining})
}

// ActualMakespan runs the same greedy execution on the ground-truth task
// latencies instead of HLS estimates — the realized makespan the
// analysis tries to predict. The gap between Makespan and ActualMakespan
// is the HLS estimation error propagated through scheduling.
func ActualMakespan(g *taskgraph.Graph, batch, k int, board fpga.Config, pipelining bool) (sim.Duration, error) {
	return runAlone(g, batch, k, board, &greedy{pipe: pipelining})
}

// runAlone runs one submission of g under policy on k slots of a
// fault-free copy of board and returns its response time.
func runAlone(g *taskgraph.Graph, batch, k int, board fpga.Config, policy sched.Scheduler) (sim.Duration, error) {
	if k < 1 {
		return 0, fmt.Errorf("saturate: k must be >= 1, got %d", k)
	}
	cfg := hv.DefaultConfig()
	cfg.Board = board
	cfg.Board.Slots = k
	// Analysis assumes fault-free hardware.
	cfg.Board.NewInjector = nil
	h, err := hv.New(sim.NewEngine(), cfg, policy)
	if err != nil {
		return 0, err
	}
	if err := h.Submit(g, batch, 1, 0); err != nil {
		return 0, err
	}
	results, err := h.Run()
	if err != nil {
		return 0, err
	}
	return results[0].Response, nil
}

// Analyze sweeps slot counts from one to the board size and derives the
// goal number and maximum useful allocation.
func Analyze(g *taskgraph.Graph, report *hls.Report, batch int, board fpga.Config, pipelining bool) (Result, error) {
	max := board.Slots
	if max < 1 {
		return Result{}, fmt.Errorf("saturate: board has %d slots", max)
	}
	// More slots than tasks can never help; cap the sweep.
	if g.NumTasks() < max {
		max = g.NumTasks()
	}
	// One estimated graph serves every slot count.
	est, err := estimateGraph(g, report)
	if err != nil {
		return Result{}, err
	}
	res := Result{Makespans: make([]sim.Duration, max)}
	for k := 1; k <= max; k++ {
		m, err := runAlone(est, batch, k, board, &greedy{pipe: pipelining})
		if err != nil {
			return Result{}, err
		}
		res.Makespans[k-1] = m
	}
	res.Goal = goalFrom(res.Makespans)
	res.MaxUseful = maxUsefulFrom(res.Makespans)
	return res, nil
}

// goalFrom finds the saturation point: the smallest k whose next slot
// improves makespan by less than GoalThreshold.
func goalFrom(ms []sim.Duration) int {
	for k := 1; k < len(ms); k++ {
		prev, next := float64(ms[k-1]), float64(ms[k])
		if prev <= 0 || (prev-next)/prev < GoalThreshold {
			return k
		}
	}
	return len(ms)
}

// maxUsefulFrom finds the largest k that still improves at least
// UsefulThreshold over k-1 (monotone scan from below; a plateau ends the
// useful range).
func maxUsefulFrom(ms []sim.Duration) int {
	useful := 1
	for k := 2; k <= len(ms); k++ {
		prev, cur := float64(ms[k-2]), float64(ms[k-1])
		if prev <= 0 || (prev-cur)/prev < UsefulThreshold {
			break
		}
		useful = k
	}
	return useful
}
