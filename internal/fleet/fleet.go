// Package fleet scales Nimblock from a cluster to a datacenter: a
// two-level scheduler in the shape Paul & Danelutto describe for FPGAs
// in data centers — fleet-level placement above, per-device schedulers
// below.
//
// The single-engine cluster front-end tops out when one event queue
// carries every board. The fleet splits the boards into N shards, each
// a cluster-style group of hypervisors on its own sim.Engine, and
// advances the shards in lockstep epochs: route the epoch's arrivals,
// run every shard to the epoch boundary (in parallel, one worker per
// shard at most), synchronize, repeat. Placement reads per-board state
// only at epoch barriers — where every shard's clock sits at the same
// instant — plus deterministic in-epoch accumulation, so results are
// byte-identical for any shard count and any worker count: the same
// discipline internal/experiments/pool.go uses for parallel runs.
//
// Workloads arrive as a workload.Stream, pulled one event at a time as
// epochs advance; a fleet run over millions of arrivals holds O(1)
// generator state instead of a materialized sequence.
package fleet

import (
	"fmt"
	"math"
	"sync"

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

// shard is one engine group: a slice of the global board list living on
// a private clock between epoch barriers.
type shard struct {
	eng    *sim.Engine
	boards []*hv.Hypervisor
	global []int           // local board index -> global board index
	idxOf  []map[int64]int // local board -> board-local ID -> submission index
}

// Fleet is the two-level scheduler.
type Fleet struct {
	cfg    Config
	mk     func(hv.Config) sched.Scheduler
	shards []*shard
	// Global-board lookup tables and placement state.
	shardOf []int
	localOf []int
	down    []bool         // health mask: true = not placeable
	outSnap []sim.Duration // barrier snapshot of OutstandingEstimate
	routed  []sim.Duration // estimates routed since the last barrier
	pendEst int            // barrier pending + routed since, for shedding

	graphs  sync.Map // app name -> *taskgraph.Graph, O(apps) not O(events)
	estMemo map[estKey]sim.Duration

	subs     int
	rejected map[int]Result
	errs     []error
	stats    Stats

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
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: need at least one shard, got %d", cfg.Shards)
	}
	if cfg.Boards < cfg.Shards {
		return nil, fmt.Errorf("fleet: %d boards across %d shards", cfg.Boards, cfg.Shards)
	}
	if mkPolicy == nil {
		return nil, fmt.Errorf("fleet: nil policy factory")
	}
	if cfg.BoardConfigs != nil && len(cfg.BoardConfigs) != cfg.Boards {
		return nil, fmt.Errorf("fleet: %d board configs for %d boards", len(cfg.BoardConfigs), cfg.Boards)
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 100 * sim.Millisecond
	}
	f := &Fleet{
		cfg:      cfg,
		mk:       mkPolicy,
		shardOf:  make([]int, cfg.Boards),
		localOf:  make([]int, cfg.Boards),
		down:     make([]bool, cfg.Boards),
		outSnap:  make([]sim.Duration, cfg.Boards),
		routed:   make([]sim.Duration, cfg.Boards),
		estMemo:  map[estKey]sim.Duration{},
		rejected: map[int]Result{},
	}
	// Deal boards to shards in contiguous blocks, remainder spread over
	// the leading shards, so board g's identity never depends on the
	// shard count.
	per, extra := cfg.Boards/cfg.Shards, cfg.Boards%cfg.Shards
	g := 0
	for s := 0; s < cfg.Shards; s++ {
		n := per
		if s < extra {
			n++
		}
		sh := &shard{eng: sim.NewEngine()}
		for k := 0; k < n; k++ {
			bcfg := f.boardConfig(g)
			b, err := hv.New(sh.eng, bcfg, mkPolicy(bcfg))
			if err != nil {
				return nil, fmt.Errorf("fleet: board %d: %w", g, err)
			}
			sh.boards = append(sh.boards, b)
			sh.global = append(sh.global, g)
			sh.idxOf = append(sh.idxOf, map[int64]int{})
			f.shardOf[g] = s
			f.localOf[g] = k
			g++
		}
		f.shards = append(f.shards, sh)
	}
	f.initInstruments()
	return f, nil
}

// boardConfig resolves the effective hv.Config of global board g.
func (f *Fleet) boardConfig(g int) hv.Config {
	if f.cfg.BoardConfigs != nil {
		return f.cfg.BoardConfigs[g]
	}
	return f.cfg.HV
}

// Shards reports the shard count; Boards the global board count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Boards reports the fleet size.
func (f *Fleet) Boards() int { return f.cfg.Boards }

// Board exposes one board's hypervisor by global index (for tests and
// reports).
func (f *Fleet) Board(g int) *hv.Hypervisor {
	return f.shards[f.shardOf[g]].boards[f.localOf[g]]
}

// SetBoardDown marks a board unplaceable (or placeable again) at the
// next routing decision — the fleet-level health mask. Work already on
// the board keeps running; new placements avoid it.
func (f *Fleet) SetBoardDown(g int, down bool) { f.down[g] = down }

// graph resolves an application name to its shared immutable task
// graph; one graph per distinct app regardless of arrival count.
func (f *Fleet) graph(name string) (*taskgraph.Graph, error) {
	if g, ok := f.graphs.Load(name); ok {
		return g.(*taskgraph.Graph), nil
	}
	g, err := apps.Graph(name)
	if err != nil {
		return nil, err
	}
	got, _ := f.graphs.LoadOrStore(name, g)
	return got.(*taskgraph.Graph), nil
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
	d := hv.SingleSlotLatencyFor(f.boardConfig(g).Board, graph, batch)
	f.estMemo[key] = d
	return d
}

// score ranks global board g for the next placement by its estimated
// outstanding seconds, barrier snapshot plus work routed this epoch
// (see frontend.PlacementScore) — the cluster's hetero-aware score
// lifted fleet-wide. Down boards rank +Inf; ties break toward the
// lowest global index.
func (f *Fleet) score(g int) float64 {
	if f.down[g] {
		return math.Inf(1)
	}
	return frontend.PlacementScore(f.Board(g).Board(), (f.outSnap[g] + f.routed[g]).Seconds())
}

// pick selects the board for the next placement; -1 when nothing is
// placeable.
func (f *Fleet) pick() int {
	best, bestScore := -1, math.Inf(1)
	for g := 0; g < f.cfg.Boards; g++ {
		if s := f.score(g); s < bestScore {
			best, bestScore = g, s
		}
	}
	return best
}

// route places one arrival, or records its rejection.
func (f *Fleet) route(ev workload.Event) {
	idx := f.subs
	f.subs++
	f.stats.Submitted++
	if f.gauges != nil {
		f.gauges.submitted.Inc()
	}
	if f.cfg.MaxOutstanding > 0 && f.pendEst >= f.cfg.MaxOutstanding {
		f.reject(idx, ev, "shed")
		return
	}
	graph, err := f.graph(ev.App)
	if err != nil {
		f.errs = append(f.errs, fmt.Errorf("fleet: submission %d: %w", idx, err))
		f.reject(idx, ev, "invalid")
		return
	}
	g := f.pick()
	if g < 0 {
		f.reject(idx, ev, "unplaceable")
		return
	}
	s, l := f.shardOf[g], f.localOf[g]
	id, err := f.shards[s].boards[l].SubmitID(graph, ev.Batch, ev.Priority, ev.Arrival)
	if err != nil {
		f.errs = append(f.errs, fmt.Errorf("fleet: submission %d (%s) on board %d: %w", idx, ev.App, g, err))
		f.reject(idx, ev, "submit-error")
		return
	}
	f.shards[s].idxOf[l][id] = idx
	f.routed[g] += f.estimate(g, ev.App, graph, ev.Batch)
	f.pendEst++
	if f.gauges != nil {
		f.gauges.shardSubmitted[s].Inc()
	}
}

// reject records a fleet-level rejection for reporting from Run.
func (f *Fleet) reject(idx int, ev workload.Event, reason string) {
	f.stats.Rejected++
	if f.gauges != nil {
		f.gauges.rejected.Inc()
	}
	f.rejected[idx] = Result{
		Result: hv.Result{
			AppID:       -1,
			App:         ev.App,
			Batch:       ev.Batch,
			Priority:    ev.Priority,
			Arrival:     ev.Arrival,
			FirstLaunch: -1,
		},
		Shard:        -1,
		Board:        -1,
		Rejected:     true,
		RejectReason: reason,
	}
}
