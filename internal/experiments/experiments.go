// Package experiments reproduces every table and figure in the paper's
// evaluation (Section 5). Each experiment has a driver that returns
// structured data and a renderer that prints the same rows/series the
// paper reports; cmd/nimblock-paper and the repository's benchmarks are
// thin wrappers over these drivers.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"nimblock/internal/apps"
	"nimblock/internal/cluster"
	"nimblock/internal/core"
	"nimblock/internal/fpga"
	"nimblock/internal/hv"
	"nimblock/internal/obs"
	"nimblock/internal/sched"
	"nimblock/internal/sched/baseline"
	"nimblock/internal/sched/ckpt"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sched/prema"
	"nimblock/internal/sched/rr"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/workload"
)

// Config scales the experiment harness.
type Config struct {
	// HV configures the hypervisor and board.
	HV hv.Config
	// Seed derives every random sequence.
	Seed int64
	// Sequences per test (paper: 10). Lower for quick runs.
	Sequences int
	// Events per sequence (paper: 20).
	Events int
	// Workers bounds the worker pool fanning independent runs across
	// goroutines: 0 consults NIMBLOCK_PARALLEL then defaults to
	// GOMAXPROCS; 1 forces the serial reference path. Output is
	// byte-identical at any setting.
	Workers int
	// NewObserver, when non-nil, is called once per board of every
	// simulation run to build that board's live observer (it is teed
	// with any HV.Observer already set). Runs execute concurrently under
	// the worker pool, so per-board sinks keep pairing state (app IDs,
	// slot windows) local while still aggregating into shared,
	// concurrency-safe state — the pattern obs.NewMetrics over one
	// shared Registry is built for. The fleet sweep publishes its own
	// fleet_* instruments instead.
	NewObserver func() obs.Sink
}

// DefaultConfig reproduces the paper's scale.
func DefaultConfig() Config {
	return Config{
		HV:        hv.DefaultConfig(),
		Seed:      20230617, // ISCA'23 presentation date
		Sequences: workload.SequencesPerTest,
		Events:    workload.EventsPerSequence,
	}
}

// QuickConfig is a reduced-scale configuration for smoke tests and
// benchmarks that must finish in seconds.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Sequences = 2
	c.Events = 8
	return c
}

// PolicyNames lists the five evaluated algorithms in figure order.
var PolicyNames = []string{"Baseline", "FCFS", "PREMA", "RR", "Nimblock"}

// SharingPolicyNames lists the four sharing algorithms (everything but
// the baseline), the set normalized in Figures 5 and 6.
var SharingPolicyNames = []string{"FCFS", "PREMA", "RR", "Nimblock"}

// AblationNames lists the Nimblock variants of Section 5.6.
var AblationNames = []string{"Nimblock", "NimblockNoPreempt", "NimblockNoPipe", "NimblockNoPreemptNoPipe"}

// policies builds each named scheduler for one board; the Nimblock
// family plans against the board's shape.
var policies = map[string]func(board fpga.Config) sched.Scheduler{
	"Baseline": func(fpga.Config) sched.Scheduler { return baseline.New() },
	"FCFS":     func(fpga.Config) sched.Scheduler { return fcfs.New() },
	"PREMA":    func(fpga.Config) sched.Scheduler { return prema.New() },
	"RR":       func(fpga.Config) sched.Scheduler { return rr.New() },
	"Nimblock": func(b fpga.Config) sched.Scheduler {
		return core.New(core.Options{Preemption: true, Pipelining: true}, b)
	},
	"NimblockNoPreempt":       func(b fpga.Config) sched.Scheduler { return core.New(core.Options{Pipelining: true}, b) },
	"NimblockNoPipe":          func(b fpga.Config) sched.Scheduler { return core.New(core.Options{Preemption: true}, b) },
	"NimblockNoPreemptNoPipe": func(b fpga.Config) sched.Scheduler { return core.New(core.Options{}, b) },
	"NimblockCheckpoint":      func(b fpga.Config) sched.Scheduler { return ckpt.New(core.DefaultOptions(), b) },
	"NimblockEnergy":          func(b fpga.Config) sched.Scheduler { return core.NewEnergy(b) },
}

// Policy resolves a policy name once into a factory that builds a fresh
// scheduler planned against each board it is handed.
func Policy(name string) (func(hv.Config) sched.Scheduler, error) {
	mk, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
	return func(b hv.Config) sched.Scheduler { return mk(b.Board) }, nil
}

// NewPolicy instantiates a scheduler by name.
func NewPolicy(name string, board fpga.Config) (sched.Scheduler, error) {
	mk, err := Policy(name)
	if err != nil {
		return nil, err
	}
	return mk(hv.Config{Board: board}), nil
}

// graphMemo caches benchmark task-graphs by name. apps.MustGraph builds a
// fresh graph on every call; the harness submits the same six benchmarks
// tens of thousands of times, so it shares one immutable Graph per name
// instead (Graphs are frozen at Build and safe for concurrent readers).
var graphMemo sync.Map // string -> *taskgraph.Graph

func cachedGraph(name string) *taskgraph.Graph {
	if g, ok := graphMemo.Load(name); ok {
		return g.(*taskgraph.Graph)
	}
	g, _ := graphMemo.LoadOrStore(name, apps.MustGraph(name))
	return g.(*taskgraph.Graph)
}

// ssKey identifies one single-slot latency: the board bandwidths and
// latency scale are the only board parameters SingleSlotLatencyFor
// reads. The scale entered the key with heterogeneous boards — without
// it, a slow edge board would silently reuse a fast board's cached
// latency.
type ssKey struct {
	app   string
	batch int
	capBW float64
	sdBW  float64
	scale float64
}

var ssMemo sync.Map // ssKey -> sim.Duration

// cachedSingleSlot memoizes hv.SingleSlotLatencyFor per (app, batch,
// board-bandwidth) configuration across scenarios, sweeps, and runs.
func cachedSingleSlot(board fpga.Config, app string, batch int) sim.Duration {
	key := ssKey{app: app, batch: batch, capBW: board.CAPBytesPerSec, sdBW: board.SDBytesPerSec, scale: board.LatencyScale}
	if d, ok := ssMemo.Load(key); ok {
		return d.(sim.Duration)
	}
	d, _ := ssMemo.LoadOrStore(key, hv.SingleSlotLatencyFor(board, cachedGraph(app), batch))
	return d.(sim.Duration)
}

// eventsFired accumulates simulator event counts across every run in
// the process: one atomic add per run (not per event), so parallel
// workers do not contend. cmd/nimblock-bench reads it to report
// events/sec alongside ns/op.
var eventsFired atomic.Int64

// EventsFired reports the total simulator events fired by experiment
// runs so far in this process.
func EventsFired() int64 { return eventsFired.Load() }

// countEvents books a finished run's event count; use with defer right
// after creating a run's engine.
func countEvents(eng *sim.Engine) { eventsFired.Add(eng.Fired()) }

// RunSequence replays one event sequence under one policy and returns
// per-event results (AppIDs follow event order, starting at 1).
func RunSequence(cfg Config, policy string, seq workload.Sequence) ([]hv.Result, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	_, res, err := runBoard(cfg, policy, seq)
	return res, err
}

// sequences generates spec's test stimulus and cuts it to c.Sequences.
func (c Config) sequences(spec workload.Spec) []workload.Sequence {
	seqs := workload.GenerateTest(spec, c.Seed)
	if c.Sequences < len(seqs) {
		seqs = seqs[:c.Sequences]
	}
	return seqs
}

// sweep runs fn on every (cell, sequence) pair across the worker pool
// and returns out[cell][seq] in input order, so aggregates come out
// byte-identical to the serial path at any worker count.
func sweep[C, S, T any](cfg Config, cells []C, seqs []S, fn func(c C, si int, seq S) (T, error)) ([][]T, error) {
	jobs := make([]func(context.Context) (T, error), 0, len(cells)*len(seqs))
	for _, c := range cells {
		for si, seq := range seqs {
			jobs = append(jobs, func(context.Context) (T, error) { return fn(c, si, seq) })
		}
	}
	flat, err := runJobs(cfg.workers(), jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]T, len(cells))
	for ci := range out {
		out[ci] = flat[ci*len(seqs) : (ci+1)*len(seqs)]
	}
	return out, nil
}

// observed tees a fresh NewObserver sink into one board's config. Every
// board of every run gets its own sink: a sink pairs arrival to retire
// by board-local AppID, so boards sharing one overwrite each other.
func (c Config) observed(board hv.Config) (hv.Config, obs.Sink) {
	if c.NewObserver == nil {
		return board, nil
	}
	sink := c.NewObserver()
	board.Observer = obs.Tee(board.Observer, sink)
	return board, sink
}

// runBoard replays seq on one fresh hypervisor built from cfg.HV under
// the named policy, drains it, and returns the board with its results.
func runBoard(cfg Config, policy string, seq workload.Sequence) (*hv.Hypervisor, []hv.Result, error) {
	mk, err := Policy(policy)
	if err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	defer countEvents(eng)
	hcfg, _ := cfg.observed(cfg.HV)
	h, err := hv.New(eng, hcfg, mk(hcfg))
	if err != nil {
		return nil, nil, err
	}
	for _, ev := range seq {
		if err := h.Submit(cachedGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
			return nil, nil, err
		}
	}
	res, err := h.Run()
	return h, res, err
}

// runCluster replays seq on one fresh cluster built from ccfg under the
// named policy and drains it. opts, when non-nil, gives submission i its
// admission attributes. Besides the cluster and its results it returns
// board 0's NewObserver sink (nil without NewObserver), where a driver
// records run-level figures once.
func runCluster(cfg Config, ccfg cluster.Config, policy string, seq workload.Sequence, opts func(i int) cluster.SubmitOptions) (*cluster.Cluster, []cluster.Result, obs.Sink, error) {
	mk, err := Policy(policy)
	if err != nil {
		return nil, nil, nil, err
	}
	var first obs.Sink
	if cfg.NewObserver != nil {
		boards := append([]hv.Config(nil), ccfg.BoardConfigs...)
		if boards == nil {
			boards = make([]hv.Config, ccfg.Boards)
			for i := range boards {
				boards[i] = ccfg.HV
			}
		}
		for i := range boards {
			var sink obs.Sink
			if boards[i], sink = cfg.observed(boards[i]); i == 0 {
				first = sink
			}
		}
		ccfg.BoardConfigs = boards
	}
	eng := sim.NewEngine()
	defer countEvents(eng)
	cl, err := cluster.New(eng, ccfg, mk)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, ev := range seq {
		var o cluster.SubmitOptions
		if opts != nil {
			o = opts(i)
		}
		if err := cl.SubmitWith(cachedGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival, o); err != nil {
			return nil, nil, nil, err
		}
	}
	res, err := cl.Run()
	return cl, res, first, err
}

// idOffset separates AppIDs of different sequences when results are
// pooled across a whole test.
const idOffset = 1_000_000

// ScenarioData pools results for one congestion scenario across all
// sequences and policies, plus the per-event single-slot latencies needed
// for deadline analysis.
type ScenarioData struct {
	Scenario workload.Scenario
	// Results maps policy name to the pooled per-event results; events
	// from sequence i carry AppIDs offset by i*idOffset so they remain
	// unique and match across policies.
	Results map[string][]hv.Result
	// PerSequence maps policy name to per-sequence result slices (same
	// offset IDs), for statistics that must stay sequence-local.
	PerSequence map[string][][]hv.Result
	// SingleSlot maps pooled AppIDs to single-slot latencies.
	SingleSlot map[int64]sim.Duration
}

// RunScenario replays the scenario's full stimulus under every policy in
// the given list.
func RunScenario(cfg Config, scenario workload.Scenario, policyNames []string) (*ScenarioData, error) {
	spec := workload.Spec{Scenario: scenario, Events: cfg.Events}
	return runSpec(cfg, spec, scenario, policyNames)
}

func runSpec(cfg Config, spec workload.Spec, scenario workload.Scenario, policyNames []string) (*ScenarioData, error) {
	out, err := runSpecs(policyNames, []specRun{{cfg: cfg, spec: spec, scenario: scenario}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// specRun is one stimulus to replay: a (config, spec) pair. Batch
// runners (ablation, sweeps) submit several at once so every underlying
// (sequence, policy) simulation lands in one worker pool.
type specRun struct {
	cfg      Config
	spec     workload.Spec
	scenario workload.Scenario
}

// runSpecs replays every spec under every policy and assembles each
// ScenarioData in (sequence, policy) order, so downstream statistics see
// identical inputs at any worker count. The sweep's cells are the
// (spec, sequence) pairs and its inner axis the policies, so each
// sequence is generated once for all of them.
func runSpecs(policyNames []string, runs []specRun) ([]*ScenarioData, error) {
	type cell struct {
		run  specRun
		data *ScenarioData
		si   int
		seq  workload.Sequence
	}
	out := make([]*ScenarioData, len(runs))
	var cells []cell
	for ri, run := range runs {
		out[ri] = &ScenarioData{
			Scenario:    run.scenario,
			Results:     map[string][]hv.Result{},
			PerSequence: map[string][][]hv.Result{},
			SingleSlot:  map[int64]sim.Duration{},
		}
		for si, seq := range run.cfg.sequences(run.spec) {
			cells = append(cells, cell{run: run, data: out[ri], si: si, seq: seq})
		}
	}
	results, err := sweep(runs[0].cfg, cells, policyNames, func(c cell, _ int, pol string) ([]hv.Result, error) {
		res, err := RunSequence(c.run.cfg, pol, c.seq)
		if err != nil {
			return nil, fmt.Errorf("scenario %v, sequence %d, policy %s: %w", c.run.scenario, c.si, pol, err)
		}
		for i := range res {
			res[i].AppID += int64(c.si) * idOffset
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cells {
		for pi, pol := range policyNames {
			c.data.Results[pol] = append(c.data.Results[pol], results[ci][pi]...)
			c.data.PerSequence[pol] = append(c.data.PerSequence[pol], results[ci][pi])
		}
		for i, ev := range c.seq {
			id := int64(i+1) + int64(c.si)*idOffset
			c.data.SingleSlot[id] = cachedSingleSlot(c.run.cfg.HV.Board, ev.App, ev.Batch)
		}
	}
	return out, nil
}
