// Package fleet scales Nimblock from a cluster to a datacenter: a
// two-level scheduler in the shape Paul & Danelutto describe for FPGAs
// in data centers — fleet-level placement above, per-device schedulers
// below.
//
// The single-engine cluster front-end tops out when one event queue
// carries every board. The fleet deals its boards across N shard
// engines (the board set, its bindings and its outcomes live in a
// frontend.Core, as the cluster's do) and advances the shards in
// lockstep epochs: route the epoch's arrivals, run every shard to the
// epoch boundary (in parallel, one worker per shard at most),
// synchronize, repeat. Placement reads per-board state only at epoch
// barriers — where every shard's clock sits at the same instant — plus
// deterministic in-epoch accumulation, so results are byte-identical
// for any shard count and any worker count: the same discipline
// internal/experiments/pool.go uses for parallel runs.
//
// Workloads arrive as a workload.Stream, pulled one event at a time as
// epochs advance; a fleet run over millions of arrivals holds O(1)
// generator state instead of a materialized sequence.
package fleet

import (
	"fmt"
	"math"

	"nimblock/internal/apps"
	"nimblock/internal/frontend"
	"nimblock/internal/hv"
	"nimblock/internal/obs"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/workload"
)

// Config parameterizes a fleet.
type Config struct {
	// Shards is the number of independent engine groups (>= 1).
	Shards int
	// Boards is the total board count across the fleet (>= Shards).
	// Boards are dealt to shards in contiguous blocks; placement works
	// on global board indices, so the same fleet sharded differently
	// schedules identically.
	Boards int
	// HV configures every board identically.
	HV hv.Config
	// BoardConfigs, when non-nil, overrides HV per global board index,
	// enabling a heterogeneous fleet. Its length must equal Boards.
	BoardConfigs []hv.Config
	// Epoch is the lockstep quantum (default 100 ms): placement sees
	// board load refreshed once per epoch, and shards never diverge by
	// more than one epoch.
	Epoch sim.Duration
	// Workers bounds the goroutines advancing shards; 0 means one per
	// shard (capped by GOMAXPROCS by the runtime's own scheduling).
	Workers int
	// MaxOutstanding, when positive, sheds arrivals once the fleet's
	// estimated pending submissions reach the cap — open-loop overload
	// degrades the excess instead of queueing without bound.
	MaxOutstanding int
	// Registry, when non-nil, receives per-shard and fleet-level
	// metrics (pending depth, submissions, epoch progress).
	Registry *obs.Registry
}

// Result is one submission's outcome. Board is the global board index;
// rejected submissions never reached a board (Board and Shard are -1,
// RejectReason says why).
type Result struct {
	hv.Result
	Shard        int
	Board        int
	Rejected     bool
	RejectReason string
}

// Stats aggregates a finished run.
type Stats struct {
	Submitted int
	Completed int
	Rejected  int
	Epochs    int
	// EventsFired sums simulator events across every shard engine.
	EventsFired int64
	// Makespan is the epoch boundary at which the fleet went quiescent.
	Makespan sim.Time
	// Energy sums per-board energy, sampled with every shard clock at
	// the same final epoch boundary.
	Energy hv.EnergyStats
	// BoardFairness is the Jain index over per-board occupied
	// slot-seconds — how evenly placement spread the work.
	BoardFairness float64
}

// Fleet is the two-level scheduler: placement policy over a
// frontend.Core that owns the boards, dealt across the shard engines.
type Fleet struct {
	cfg  Config
	engs []*sim.Engine // shard -> engine
	core *frontend.Core
	// Placement state, by global board index.
	outSnap []sim.Duration // barrier snapshot of OutstandingEstimate
	routed  []sim.Duration // estimates routed since the last barrier
	scores  []float64      // score(g), refreshed whenever an input changes
	pendAt  []int          // PendingCount at the board's last barrier visit
	pendEst int            // barrier pending + routed since, for shedding

	// Barrier state. A board's hv.Config.OnLoad puts it on its shard's
	// dirty list (marked dedupes), so the barrier visits only boards
	// whose load moved and keeps the pending totals as running deltas.
	// Each list is written only by its shard's worker during advance.
	dirty     [][]int  // shard -> boards reported since the last barrier
	marked    []bool   // board -> on its shard's dirty list
	pending   int      // fleet pending count at the last barrier
	shardPend []int    // per-shard pending count at the last barrier
	now       sim.Time // the last barrier's epoch boundary

	graphs  map[string]*taskgraph.Graph // O(apps), not O(events)
	estMemo map[estKey]sim.Duration

	stats  Stats
	gauges *instruments
}

// estKey memoizes single-slot estimates: per (app, batch) on a
// homogeneous fleet, per (app, batch, board) on a heterogeneous one.
type estKey struct {
	app   string
	batch int
	board int
}

// New builds a fleet; mkPolicy supplies a fresh scheduling policy per
// board and receives the board's configuration, as in internal/cluster.
func New(cfg Config, mkPolicy func(hv.Config) sched.Scheduler) (*Fleet, error) {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 100 * sim.Millisecond
	}
	f := &Fleet{
		cfg:     cfg,
		graphs:  map[string]*taskgraph.Graph{},
		estMemo: map[estKey]sim.Duration{},
	}
	for s := 0; s < cfg.Shards; s++ {
		f.engs = append(f.engs, sim.NewEngine())
	}
	core, err := frontend.New(f.engs, frontend.Config{
		Name:         "fleet",
		Boards:       cfg.Boards,
		HV:           cfg.HV,
		BoardConfigs: cfg.BoardConfigs,
	}, mkPolicy, frontend.Hooks{Loaded: f.loaded})
	if err != nil {
		return nil, err
	}
	f.core = core
	f.outSnap = make([]sim.Duration, cfg.Boards)
	f.routed = make([]sim.Duration, cfg.Boards)
	f.scores = make([]float64, cfg.Boards)
	f.pendAt = make([]int, cfg.Boards)
	f.marked = make([]bool, cfg.Boards)
	f.dirty = make([][]int, cfg.Shards)
	f.shardPend = make([]int, cfg.Shards)
	for g := range f.scores {
		f.scores[g] = f.score(g)
	}
	f.initInstruments()
	return f, nil
}

// loaded is every board's frontend.Hooks.Loaded: it queues board g for
// the next barrier on its own shard's list.
func (f *Fleet) loaded(g int) {
	if f.marked[g] {
		return
	}
	f.marked[g] = true
	s := f.core.Shard(g)
	f.dirty[s] = append(f.dirty[s], g)
}

// Shards reports the shard count.
func (f *Fleet) Shards() int { return len(f.engs) }

// Boards reports the fleet size.
func (f *Fleet) Boards() int { return f.cfg.Boards }

// Board exposes one board's hypervisor by global index (for tests and
// reports).
func (f *Fleet) Board(g int) *hv.Hypervisor { return f.core.Board(g) }

// graph resolves an application name to its shared immutable task
// graph; one graph per distinct app regardless of arrival count.
func (f *Fleet) graph(name string) (*taskgraph.Graph, error) {
	if g, ok := f.graphs[name]; ok {
		return g, nil
	}
	g, err := apps.Graph(name)
	if err != nil {
		return nil, err
	}
	f.graphs[name] = g
	return g, nil
}

// estimate is the placement-time work estimate of one arrival on board
// g: its single-slot latency there, memoized per app/batch/board shape.
func (f *Fleet) estimate(g int, app string, graph *taskgraph.Graph, batch int) sim.Duration {
	key := estKey{app: app, batch: batch}
	if f.cfg.BoardConfigs != nil {
		key.board = g
	}
	if d, ok := f.estMemo[key]; ok {
		return d
	}
	d := f.Board(g).SingleSlotLatency(graph, batch)
	f.estMemo[key] = d
	return d
}

// score ranks global board g for the next placement by its estimated
// outstanding seconds, barrier snapshot plus work routed this epoch
// (see frontend.PlacementScore) — the cluster's hetero-aware score
// lifted fleet-wide. A board with no usable slot ranks +Inf. f.scores
// caches it: it is recomputed when the snapshot, the routed sum or the
// usable slot count (reported through loaded) changes.
func (f *Fleet) score(g int) float64 {
	return frontend.PlacementScore(f.Board(g).Board(), (f.outSnap[g] + f.routed[g]).Seconds())
}

// pick selects the board for the next placement, the lowest cached
// score with ties broken toward the lowest global index; -1 when
// nothing is placeable.
func (f *Fleet) pick() int {
	best, bestScore := -1, math.Inf(1)
	for g, s := range f.scores {
		if s < bestScore {
			best, bestScore = g, s
		}
	}
	return best
}

// route places one arrival, or records its rejection.
func (f *Fleet) route(ev workload.Event) {
	idx := f.core.Add(ev.App, ev.Batch, ev.Priority, ev.Arrival)
	if f.gauges != nil {
		f.gauges.submitted.Inc()
	}
	if f.cfg.MaxOutstanding > 0 && f.pendEst >= f.cfg.MaxOutstanding {
		f.reject(idx, "shed")
		return
	}
	graph, err := f.graph(ev.App)
	if err != nil {
		f.core.Fault(fmt.Errorf("fleet: submission %d: %w", idx, err), nil)
		f.reject(idx, "invalid")
		return
	}
	g := f.pick()
	if g < 0 {
		f.reject(idx, "unplaceable")
		return
	}
	id, err := f.Board(g).SubmitID(graph, ev.Batch, ev.Priority, ev.Arrival)
	if err != nil {
		f.core.Fault(fmt.Errorf("fleet: submission %d (%s) on board %d: %w", idx, ev.App, g, err), nil)
		f.reject(idx, "submit-error")
		return
	}
	f.core.Bind(g, id, idx, nil)
	f.routed[g] += f.estimate(g, ev.App, graph, ev.Batch)
	f.scores[g] = f.score(g)
	f.pendEst++
	if f.gauges != nil {
		f.gauges.shardSubmitted[f.core.Shard(g)].Inc()
	}
}

// reject records a fleet-level rejection for reporting from Run.
func (f *Fleet) reject(idx int, reason string) {
	f.core.Reject(idx, reason)
	if f.gauges != nil {
		f.gauges.rejected.Inc()
	}
}
