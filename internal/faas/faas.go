// Package faas layers a serverless platform over the virtualized FPGA
// cluster.
//
// The paper's introduction argues FPGA virtualization is the enabler for
// serverless computing with FPGAs as first-class accelerators: FaaS needs
// strong isolation between tenants (slots), fine-grained scheduling of
// individual tasks (the Nimblock runtime), and flexible resource
// allocation (the cluster). This package supplies the missing front-end:
// a function registry, invocation dispatch with warm-board affinity, and
// cold-start modelling — a function's partial bitstreams must be
// distributed to a board before its first invocation runs there.
//
// An optional admission controller (internal/admit) bounds what the
// platform accepts; rejected invocations come back from Run as Rejected
// results, so a traffic spike sheds load instead of queueing without
// bound.
//
// The board set, admission, and board-level failover are the shared
// internal/frontend core; this package supplies the function registry,
// warm/cold placement, and invocation results.
package faas

import (
	"fmt"
	"sort"

	"nimblock/internal/admit"
	"nimblock/internal/faults"
	"nimblock/internal/frontend"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// Function is a registered FPGA function: a task-graph with a fixed
// priority class and optional admission attributes.
type Function struct {
	Graph    *taskgraph.Graph
	Priority int
	// Tenant attributes the function's invocations for admission quotas
	// and fair sharing; "" is the shared default tenant.
	Tenant string
	// Weight is the tenant's fair-share weight for service-proportional
	// scheduling on the boards (NimblockEnergy); 0 means weight 1.
	Weight float64
	// SLO is the per-invocation latency budget for deadline admission;
	// 0 falls back to the admission controller's DeadlineFactor.
	SLO sim.Duration
}

// Config parameterizes the platform.
type Config struct {
	// Boards is the cluster size.
	Boards int
	// HV configures each board.
	HV hv.Config
	// BoardConfigs, when non-nil, overrides HV per board, enabling a
	// heterogeneous platform (mixed slot counts, latency scales, power
	// envelopes). Its length must equal Boards. Placement folds each
	// board's latency scale and usable slot count into its load score.
	BoardConfigs []hv.Config
	// ColdStart is the delay to distribute a function's bitstreams to a
	// board that has never run it (network copy to the board's SD card).
	ColdStart sim.Duration
	// ScaleUp is the pending-invocation count on warm boards beyond
	// which the dispatcher pays a cold start to open a new board.
	// Values <= 0 mean eager scaling: any warm backlog at all justifies
	// a strictly less-loaded cold board.
	ScaleUp int
	// Admission, when non-nil, bounds accepted invocations; rejections
	// are reported as Rejected results from Run.
	Admission *admit.Config
	// Health, when non-nil, arms the board-level failure domain layer:
	// liveness tracking, health-aware placement, failover of invocations
	// off dead boards (checkpoint migration when HV.Checkpoint is
	// enabled), and circuit-breaker re-admission. A dead board loses its
	// deployed bitstreams, so re-invocations pay a fresh cold start.
	// Hedged dispatch is a cluster-only feature: invocations are cheap
	// to re-run and warm affinity would make duplicate placement fight
	// the cold-start model. Enabled automatically when BoardFaults is
	// non-empty.
	Health *health.Options
	// BoardFaults schedules board-level fault events (crash, hang,
	// degrade), typically via faults.Plan.BoardEvents.
	BoardFaults []faults.BoardEvent
}

// DefaultConfig is a four-board platform with a 500 ms cold start.
func DefaultConfig() Config {
	return Config{
		Boards:    4,
		HV:        hv.DefaultConfig(),
		ColdStart: 500 * sim.Millisecond,
		ScaleUp:   4,
	}
}

// Result is one completed (or rejected) invocation. A Rejected result
// never reached a board: Board is -1, Latency 0, and RejectReason names
// the admission outcome.
type Result struct {
	Function string
	Board    int
	Cold     bool
	// InvokedAt is when the client issued the invocation.
	InvokedAt sim.Time
	// Latency is retirement minus invocation, including any cold start.
	Latency sim.Duration
	// Items echoes the invocation batch.
	Items        int
	Rejected     bool
	RejectReason string
	// Failed marks invocations lost permanently to board deaths: the
	// retry budget ran out ("retries-exhausted") or no board ever came
	// back ("stranded"). Board is the last board that held it, or -1.
	Failed     bool
	FailReason string
	// Attempts counts placements: 1 for an invocation that ran where it
	// first landed, more after failover, 0 for rejected (or failed
	// before any board could take it).
	Attempts int
}

// Stats aggregates platform counters. Invocations counts accepted
// dispatches only; Rejections counts what admission turned away.
type Stats struct {
	Invocations int
	ColdStarts  int
	WarmStarts  int
	Rejections  int
}

// invocation is the platform's record of one Invoke call.
type invocation struct {
	function string
	invoked  sim.Time
	items    int
	cold     bool // the latest placement paid a cold start
	placed   bool // placed at least once (counted in Stats.Invocations)
}

// Platform is the serverless front-end.
type Platform struct {
	eng         *sim.Engine
	cfg         Config
	core        *frontend.Core
	deployed    []map[string]bool
	outstanding []int // per-board dispatched-not-retired invocations
	funcs       map[string]Function
	invs        []*invocation // submission index -> invocation
	stats       Stats
}

// New builds a platform; mkPolicy supplies a fresh scheduler per board
// and receives the board's configuration, so policies that plan against
// board shape work on heterogeneous platforms.
func New(eng *sim.Engine, cfg Config, mkPolicy func(board hv.Config) sched.Scheduler) (*Platform, error) {
	if cfg.ColdStart < 0 {
		return nil, fmt.Errorf("faas: negative cold start")
	}
	p := &Platform{eng: eng, cfg: cfg, funcs: map[string]Function{}}
	core, err := frontend.New([]*sim.Engine{eng}, frontend.Config{
		Name:         "faas",
		Boards:       cfg.Boards,
		HV:           cfg.HV,
		BoardConfigs: cfg.BoardConfigs,
		Admission:    cfg.Admission,
		Health:       cfg.Health,
		BoardFaults:  cfg.BoardFaults,
	}, mkPolicy, frontend.Hooks{
		Place:   p.place,
		Retired: func(board int, _ int64, _ int) { p.outstanding[board]-- },
		// A dead board's bitstream deployments die with it.
		Lost: func(board int) { p.deployed[board], p.outstanding[board] = map[string]bool{}, 0 },
	})
	if err != nil {
		return nil, err
	}
	p.core = core
	p.deployed = make([]map[string]bool, cfg.Boards)
	for i := range p.deployed {
		p.deployed[i] = map[string]bool{}
	}
	p.outstanding = make([]int, cfg.Boards)
	return p, nil
}

// Register adds a function to the registry. Functions must be registered
// before they are invoked; re-registration replaces the definition only
// if no invocation has run yet.
func (p *Platform) Register(name string, fn Function) error {
	if fn.Graph == nil {
		return fmt.Errorf("faas: function %q has no task-graph", name)
	}
	if fn.Priority < 1 {
		return fmt.Errorf("faas: function %q priority %d < 1", name, fn.Priority)
	}
	if _, dup := p.funcs[name]; dup {
		return fmt.Errorf("faas: function %q already registered", name)
	}
	p.funcs[name] = fn
	return nil
}

// Invoke schedules an invocation of a registered function at the given
// time with the given number of independent inputs.
func (p *Platform) Invoke(function string, items int, at sim.Time) error {
	fn, ok := p.funcs[function]
	if !ok {
		return fmt.Errorf("faas: unknown function %q", function)
	}
	if items < 1 {
		return fmt.Errorf("faas: invocation of %q with %d items", function, items)
	}
	idx := p.core.Add(fn.Graph.Name(), items, fn.Priority, at)
	p.invs = append(p.invs, &invocation{function: function, invoked: at, items: items})
	p.eng.At(at, func() { p.arrive(idx) })
	return nil
}

// arrive runs the admission decision (if configured) at the invocation
// instant and dispatches whatever it clears.
func (p *Platform) arrive(idx int) {
	in := p.invs[idx]
	fn := p.funcs[in.function]
	p.core.Arrive(idx, fn.Graph, in.items, admit.Request{Tenant: fn.Tenant, Priority: fn.Priority, SLO: fn.SLO})
	p.core.Pump()
}

// place lands one invocation (fresh, parked, or evacuated) on the board
// pick chooses among cands, paying the cold start on a board that does
// not hold the function's bitstreams yet.
func (p *Platform) place(idx int, cands []int) (int, int64, error) {
	in := p.invs[idx]
	fn := p.funcs[in.function]
	board, cold := p.pick(in.function, cands)
	if board < 0 {
		return -1, 0, nil
	}
	arrival := p.eng.Now()
	if cold {
		arrival = arrival.Add(p.cfg.ColdStart)
	}
	var id int64
	var err error
	if fn.Tenant != "" {
		id, err = p.core.Board(board).SubmitTenant(fn.Graph, in.items, fn.Priority, arrival, fn.Tenant, fn.Weight)
	} else {
		id, err = p.core.Board(board).SubmitID(fn.Graph, in.items, fn.Priority, arrival)
	}
	if err != nil {
		return board, 0, fmt.Errorf("faas: invocation of %q: %w", in.function, err)
	}
	if cold {
		p.deployed[board][in.function] = true
		p.stats.ColdStarts++
	} else {
		p.stats.WarmStarts++
	}
	if !in.placed {
		p.stats.Invocations++
		in.placed = true
	}
	p.outstanding[board]++
	in.cold = cold
	return board, id, nil
}

// pick chooses a board among cands with warm affinity: the least-busy
// board that already holds the function's bitstreams, unless every warm
// board is at or over the scale-up threshold and a cold board is
// strictly less loaded, in which case the cold start is worth paying.
// Load ties break toward the lowest board index (strict "<"), so
// placement is deterministic. Boundary behavior, pinned by tests:
//
//   - no warm board: cheapest cold board, cold start;
//   - all boards warm (nowhere to scale to): least-loaded warm board,
//     however deep its backlog;
//   - ScaleUp <= 0: eager scaling — any warm backlog justifies a
//     strictly less-loaded cold board (an idle warm board still wins);
//   - single board: always that board, cold exactly once per function.
func (p *Platform) pick(function string, cands []int) (board int, cold bool) {
	warmBest, coldBest := -1, -1
	var warmScore, coldScore float64
	warmLoad := 0
	for _, i := range cands {
		score := p.score(i)
		if p.deployed[i][function] {
			if warmBest == -1 || score < warmScore {
				warmBest, warmScore = i, score
				warmLoad = p.outstanding[i]
			}
		} else if coldBest == -1 || score < coldScore {
			coldBest, coldScore = i, score
		}
	}
	if warmBest == -1 {
		return coldBest, true
	}
	threshold := p.cfg.ScaleUp
	if threshold <= 0 {
		threshold = 1
	}
	if coldBest != -1 && warmLoad >= threshold && coldScore < warmScore {
		return coldBest, true
	}
	return warmBest, false
}

// score ranks a board for placement by its outstanding invocation count
// (see frontend.PlacementScore), so a slow or narrow board looks busier
// than a fast wide board at the same queue depth. On a homogeneous
// platform every factor cancels and the score orders exactly like the
// raw count, ties still breaking toward the lowest board index through
// strict "<".
func (p *Platform) score(i int) float64 {
	return frontend.PlacementScore(p.core.Board(i).Board(), float64(p.outstanding[i]))
}

// Energy sums the per-board energy reports.
func (p *Platform) Energy() hv.EnergyStats { return p.core.Energy() }

// TenantServices merges delivered per-tenant fabric time across boards.
func (p *Platform) TenantServices() map[string]sim.Duration { return p.core.TenantServices() }

// Stats returns platform counters.
func (p *Platform) Stats() Stats {
	st := p.stats
	as := p.core.AdmissionStats()
	st.Rejections = as.Shed + as.RejectedDeadline + as.RejectedQuota
	return st
}

// AdmissionStats reports the admission controller's counters; the zero
// Stats when admission is disabled.
func (p *Platform) AdmissionStats() admit.Stats { return p.core.AdmissionStats() }

// FailoverStats reports the platform's failover accounting; the zero
// Stats when the failure-domain layer is off.
func (p *Platform) FailoverStats() health.Stats { return p.core.FailoverStats() }

// BoardStates reports every board's health state; nil when the
// failure-domain layer is off.
func (p *Platform) BoardStates() []health.State { return p.core.BoardStates() }

// Boards reports the cluster size.
func (p *Platform) Boards() int { return p.core.Boards() }

// Outstanding reports dispatched-not-retired invocations on one board
// (for tests and reports).
func (p *Platform) Outstanding(board int) int { return p.outstanding[board] }

// Run drives the simulation until every accepted invocation completes
// and returns one result per invocation — completed, rejected, or
// failed — ordered by invocation time, ties by board (rejections first)
// and then by invocation order. Dispatch-time submit failures
// accumulated during the run are returned joined.
func (p *Platform) Run() ([]Result, error) {
	outs, err := p.core.Run()
	if err != nil {
		return nil, err
	}
	res := make([]Result, len(outs))
	for idx, o := range outs {
		in := p.invs[idx]
		r := Result{
			Function:     in.function,
			Board:        o.Board,
			InvokedAt:    in.invoked,
			Items:        in.items,
			Rejected:     o.Rejected,
			RejectReason: o.RejectReason,
			Failed:       o.Failed,
			FailReason:   o.FailReason,
			Attempts:     o.Attempts,
		}
		if !o.Rejected && !o.Failed {
			r.Cold = in.cold
			r.Latency = o.Result.Retire.Sub(in.invoked)
		}
		res[idx] = r
	}
	sort.SliceStable(res, func(i, j int) bool {
		if res[i].InvokedAt != res[j].InvokedAt {
			return res[i].InvokedAt < res[j].InvokedAt
		}
		return res[i].Board < res[j].Board
	})
	return res, nil
}
