// Package cluster scales Nimblock out across multiple FPGAs.
//
// The paper's introduction lists scale-out — "allowing applications to
// spread across multiple FPGAs" — as one of the three properties a
// virtualized FPGA should support, and leaves cloud-scale exploration to
// future work. This package provides that layer: a dispatcher in front
// of N independent boards, each running its own Nimblock hypervisor, all
// advancing on one virtual clock. Applications are placed on a board at
// arrival time by a pluggable dispatch policy; within a board, the
// configured scheduling algorithm takes over.
//
// An optional admission controller (internal/admit) sits in front of
// dispatch: arrivals it rejects never reach a board and come back from
// Run as Rejected results instead of errors, so overload degrades the
// excess traffic rather than the whole run.
//
// The board set, admission, and board-level failover are the shared
// internal/frontend core; this package supplies the dispatch modes,
// hedging, and the same-instant arrival drain.
package cluster

import (
	"fmt"
	"math/rand"
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

// Dispatch selects how arrivals are spread across boards.
type Dispatch int

const (
	// RoundRobin cycles through boards in order.
	RoundRobin Dispatch = iota
	// LeastLoaded picks the board with the smallest estimated
	// outstanding work (HLS estimates, like the schedulers use).
	LeastLoaded
	// LeastPending picks the board with the fewest pending applications.
	LeastPending
	// RandomBoard picks uniformly at random (seeded, deterministic).
	RandomBoard
	// HeteroAware ranks boards by estimated completion of the next unit
	// of work on a heterogeneous fleet: outstanding work stretched by
	// the board's latency scale and divided by its usable slot count.
	// On a homogeneous fleet it degenerates to LeastLoaded.
	HeteroAware
)

// String names the dispatch policy.
func (d Dispatch) String() string {
	switch d {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case LeastPending:
		return "least-pending"
	case RandomBoard:
		return "random"
	case HeteroAware:
		return "hetero-aware"
	default:
		return fmt.Sprintf("Dispatch(%d)", int(d))
	}
}

// Config parameterizes a cluster.
type Config struct {
	// Boards is the number of FPGAs (>= 1).
	Boards int
	// HV configures each board's hypervisor identically.
	HV hv.Config
	// BoardConfigs, when non-nil, overrides HV per board, enabling
	// heterogeneous clusters (e.g. a mix of edge-scale 4-slot and
	// cloud-scale 10-slot devices, the Hetero-ViTAL direction). Its
	// length must equal Boards.
	BoardConfigs []hv.Config
	// Dispatch selects the placement policy (default RoundRobin).
	Dispatch Dispatch
	// Seed drives RandomBoard placement.
	Seed int64
	// Admission, when non-nil, bounds what the cluster accepts: arrivals
	// the controller rejects are reported as Rejected results from Run
	// instead of being dispatched.
	Admission *admit.Config
	// Health, when non-nil, arms the board-level failure domain layer:
	// per-board liveness tracking, health-aware dispatch, failover of
	// work off dead boards (checkpoint migration when the board config
	// enables hv.CheckpointConfig), circuit-breaker re-admission, and
	// hedged dispatch for priority >= Health.HedgePriority submissions.
	// It is enabled automatically when BoardFaults is non-empty.
	Health *health.Options
	// BoardFaults schedules board-level fault events (crash, hang,
	// degrade) against the fleet, typically via faults.Plan.BoardEvents.
	BoardFaults []faults.BoardEvent
}

// Result is a per-application outcome annotated with its board. When
// Rejected is set the submission never reached a board: Board is -1,
// RejectReason names the admission outcome ("shed", "deadline",
// "quota"), and only the identifying Result fields (App, Batch,
// Priority, Arrival) are meaningful.
type Result struct {
	hv.Result
	Board        int
	Rejected     bool
	RejectReason string
	// Failed marks work that was admitted but lost permanently to board
	// deaths: its retry budget ran out (FailReason "retries-exhausted")
	// or no board ever came back to run it ("stranded"). Board is the
	// last board that held it, or -1 if it never ran.
	Failed     bool
	FailReason string
	// Attempts counts placements: 1 for work that ran where it first
	// landed, more when board deaths forced re-dispatch, 0 for rejected.
	Attempts int
}

// SubmitOptions carries the admission-relevant attributes of one
// submission. The zero value is a default-tenant submission with no
// explicit SLO.
type SubmitOptions struct {
	// Tenant attributes the submission for quotas and fair sharing.
	Tenant string
	// SLO is the latency budget for deadline admission; 0 falls back to
	// the controller's DeadlineFactor (or no deadline test).
	SLO sim.Duration
	// Weight is the tenant's fair-share weight for service-proportional
	// scheduling on the boards (NimblockEnergy); 0 means weight 1.
	Weight float64
}

// submission is the cluster-side record of one Submit call.
type submission struct {
	idx      int
	g        *taskgraph.Graph
	batch    int
	priority int
	opts     SubmitOptions
}

// Cluster fronts N hypervisors with an arrival-time dispatcher.
type Cluster struct {
	eng    *sim.Engine
	cfg    Config
	core   *frontend.Core
	rng    *rand.Rand
	next   int           // round-robin cursor
	subs   []*submission // submission index -> record
	buffer []*submission // same-instant arrivals awaiting the canonical drain

	hedgeAt int            // hedge priority threshold; 0 disables hedging
	hedges  map[int]*hedge // submission index -> hedge state (see failover.go)
}

// New builds a cluster; mkPolicy supplies a fresh scheduling policy per
// board (policies are stateful and must not be shared) and receives the
// board's configuration so policies that plan against board shape (the
// Nimblock goal-number analysis) work on heterogeneous clusters.
func New(eng *sim.Engine, cfg Config, mkPolicy func(board hv.Config) sched.Scheduler) (*Cluster, error) {
	c := &Cluster{eng: eng, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	hooks := frontend.Hooks{Place: c.place}
	if cfg.Health != nil && cfg.Health.HedgePriority > 0 {
		c.hedgeAt, c.hedges = cfg.Health.HedgePriority, map[int]*hedge{}
		hooks.Dispatch, hooks.Retired, hooks.Evacuated = c.hedgeDispatch, c.hedgeRetired, c.hedgeEvacuated
	}
	core, err := frontend.New([]*sim.Engine{eng}, frontend.Config{
		Name:         "cluster",
		Boards:       cfg.Boards,
		HV:           cfg.HV,
		BoardConfigs: cfg.BoardConfigs,
		Admission:    cfg.Admission,
		Health:       cfg.Health,
		BoardFaults:  cfg.BoardFaults,
		Seed:         cfg.Seed,
	}, mkPolicy, hooks)
	if err != nil {
		return nil, err
	}
	c.core = core
	return c, nil
}

// Now reports the cluster clock; after Run it sits at the last fired
// event.
func (c *Cluster) Now() sim.Time { return c.eng.Now() }

// Boards reports the cluster size.
func (c *Cluster) Boards() int { return c.core.Boards() }

// Board exposes one board's hypervisor (for tests and reports).
func (c *Cluster) Board(i int) *hv.Hypervisor { return c.core.Board(i) }

// AdmissionStats reports the admission controller's counters; the zero
// Stats when admission is disabled.
func (c *Cluster) AdmissionStats() admit.Stats { return c.core.AdmissionStats() }

// FailoverStats reports the fleet's failover accounting; the zero Stats
// when the failure-domain layer is off.
func (c *Cluster) FailoverStats() health.Stats { return c.core.FailoverStats() }

// BoardStates reports every board's health state; nil when the
// failure-domain layer is off.
func (c *Cluster) BoardStates() []health.State { return c.core.BoardStates() }

// Energy sums the per-board energy reports; each board integrates its
// own power model, so heterogeneous fleets aggregate correctly.
func (c *Cluster) Energy() hv.EnergyStats { return c.core.Energy() }

// TenantServices merges delivered per-tenant fabric time across the
// fleet (board-local latency scales already folded in by each board's
// accounting).
func (c *Cluster) TenantServices() map[string]sim.Duration { return c.core.TenantServices() }

// Submit schedules an application arrival under the default tenant with
// no explicit SLO. The board is chosen when the application actually
// arrives, so load-aware policies see current state.
func (c *Cluster) Submit(g *taskgraph.Graph, batch, priority int, arrival sim.Time) error {
	return c.SubmitWith(g, batch, priority, arrival, SubmitOptions{})
}

// SubmitWith is Submit with admission attributes (tenant, SLO).
func (c *Cluster) SubmitWith(g *taskgraph.Graph, batch, priority int, arrival sim.Time, opts SubmitOptions) error {
	if g == nil {
		return fmt.Errorf("cluster: nil graph")
	}
	if err := hv.CheckWeight(opts.Weight); err != nil {
		return err
	}
	sub := &submission{idx: c.core.Add(g.Name(), batch, priority, arrival), g: g, batch: batch, priority: priority, opts: opts}
	c.subs = append(c.subs, sub)
	c.eng.At(arrival, func() {
		// Buffer and drain once all arrivals at this instant are in: the
		// drain's After(0) event sorts after every Submit event already
		// queued at the same time, so simultaneous submissions are
		// admitted and dispatched in one canonical pass (by submission
		// index) no matter how their events were interleaved.
		c.buffer = append(c.buffer, sub)
		if len(c.buffer) == 1 {
			c.eng.After(0, c.drain)
		}
	})
	return nil
}

// drain admits and dispatches every arrival buffered at this instant.
func (c *Cluster) drain() {
	batch := c.buffer
	c.buffer = nil
	sort.Slice(batch, func(i, j int) bool { return batch[i].idx < batch[j].idx })
	for _, sub := range batch {
		c.core.Arrive(sub.idx, sub.g, sub.batch, admit.Request{
			Tenant:   sub.opts.Tenant,
			Priority: sub.priority,
			SLO:      sub.opts.SLO,
		})
	}
	c.core.Pump()
}

// place is the cluster's placement policy: the dispatch mode picks a
// candidate board and the submission lands there.
func (c *Cluster) place(idx int, cands []int) (int, int64, error) {
	b := c.pickAmong(cands)
	id, err := c.submitTo(b, c.subs[idx])
	return b, id, err
}

// submitTo lands one submission on board b, carrying the tenant
// identity and fair-share weight through to the board's scheduler when
// the submission has them (anonymous submissions keep the cheaper
// untagged path).
func (c *Cluster) submitTo(b int, sub *submission) (int64, error) {
	var id int64
	var err error
	if sub.opts.Tenant != "" {
		id, err = c.core.Board(b).SubmitTenant(sub.g, sub.batch, sub.priority, c.eng.Now(), sub.opts.Tenant, sub.opts.Weight)
	} else {
		id, err = c.core.Board(b).SubmitID(sub.g, sub.batch, sub.priority, c.eng.Now())
	}
	if err != nil {
		return 0, fmt.Errorf("cluster: submission %d (%s) on board %d: %w", sub.idx, sub.g.Name(), b, err)
	}
	return id, nil
}

// Run drives the shared engine until every application on every board
// retires, and returns one Result per submission in global submission
// order: board-annotated outcomes for dispatched work, Rejected entries
// for what admission turned away, Failed entries for work board deaths
// lost. Dispatch-time submit failures accumulated during the run are
// returned joined.
func (c *Cluster) Run() ([]Result, error) {
	outs, err := c.core.Run()
	if err != nil {
		return nil, err
	}
	res := make([]Result, len(outs))
	for idx, o := range outs {
		res[idx] = Result{
			Result:       o.Result,
			Board:        o.Board,
			Rejected:     o.Rejected,
			RejectReason: o.RejectReason,
			Failed:       o.Failed,
			FailReason:   o.FailReason,
			Attempts:     o.Attempts,
		}
	}
	return res, nil
}
