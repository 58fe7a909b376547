package nimblock

import (
	"fmt"
	"time"

	"nimblock/internal/cluster"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

// DispatchPolicy selects how a cluster places arriving applications.
type DispatchPolicy string

// Available dispatch policies.
const (
	// DispatchRoundRobin cycles through boards.
	DispatchRoundRobin DispatchPolicy = "round-robin"
	// DispatchLeastLoaded picks the board with the least estimated
	// outstanding work.
	DispatchLeastLoaded DispatchPolicy = "least-loaded"
	// DispatchLeastPending picks the board with the fewest pending apps.
	DispatchLeastPending DispatchPolicy = "least-pending"
	// DispatchRandom picks a seeded-random board.
	DispatchRandom DispatchPolicy = "random"
	// DispatchHeteroAware scores boards by estimated outstanding work
	// scaled by each board's latency scale and divided by its usable
	// slot count — the placement policy for heterogeneous fleets (see
	// ClusterConfig.BoardSpecs). On identical boards it degenerates to
	// least-loaded ordering.
	DispatchHeteroAware DispatchPolicy = "hetero-aware"
)

// ClusterConfig parameterizes a multi-FPGA deployment: a set of boards,
// each scheduled independently by Config.Algorithm, fronted by an
// arrival-time dispatcher.
type ClusterConfig struct {
	// Config applies to every board, every field as on a lone System;
	// the FaultPlan's board events drive the failure domain (see
	// Health).
	Config
	// Boards is the number of FPGAs (default 2).
	Boards int
	// BoardSpecs, when non-empty, gives each board its own capability
	// spec (slots, bandwidth, latency scale, power model), making the
	// fleet heterogeneous; its length must equal Boards. A nil spec,
	// or a zero spec field, inherits the embedded Config's platform,
	// and each board's policy plans against its own shape. Pair with
	// DispatchHeteroAware so placement sees the differences.
	BoardSpecs []*BoardSpec
	// Dispatch places arrivals (default DispatchLeastLoaded).
	Dispatch DispatchPolicy
	// Seed drives DispatchRandom.
	Seed int64
	// Admission, when non-nil, bounds what the cluster accepts; rejected
	// submissions come back from Run as Rejected results, not errors.
	Admission *AdmissionConfig
	// Health, when non-nil, arms board-level failure domains: liveness
	// tracking, circuit-breaker re-admission, failover of work off dead
	// boards (checkpoint migration when checkpointing is enabled), and
	// optional hedged dispatch. It is armed automatically when the
	// embedded Config.FaultPlan schedules board-crash, board-hang, or
	// board-degrade events.
	Health *HealthConfig
}

// HealthConfig tunes the cluster's board-level failure domain layer.
// The zero value of every field selects a sensible default.
type HealthConfig struct {
	// LivenessInterval is how often each board's event-progress
	// heartbeat is polled (default 500 ms); LivenessMisses is how many
	// consecutive static polls with work outstanding declare the board
	// dead (default 3).
	LivenessInterval time.Duration
	LivenessMisses   int
	// BackoffBase and BackoffMax bound the circuit breaker's
	// re-admission backoff after a board death (defaults 2 s and 60 s);
	// each repeated death doubles the wait, jittered +/-20%.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RetryBudget is how many times one submission may be re-dispatched
	// after losing its board before it surfaces as a Failed result
	// (default 2).
	RetryBudget int
	// HedgePriority, when > 0, duplicates submissions with priority >=
	// it onto the two best healthy boards, cancelling the slower copy
	// when the faster retires.
	HedgePriority int
}

// internal maps the public knobs onto the health package options.
func (h *HealthConfig) internal() *health.Options {
	if h == nil {
		return nil
	}
	return &health.Options{
		Tracker: health.Config{
			LivenessInterval: sim.FromStd(h.LivenessInterval),
			LivenessMisses:   h.LivenessMisses,
			BackoffBase:      sim.FromStd(h.BackoffBase),
			BackoffMax:       sim.FromStd(h.BackoffMax),
		},
		RetryBudget:   h.RetryBudget,
		HedgePriority: h.HedgePriority,
	}
}

// DefaultClusterConfig is a two-board, least-loaded Nimblock cluster.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Config:   DefaultConfig(),
		Boards:   2,
		Dispatch: DispatchLeastLoaded,
	}
}

// ClusterResult is a Result annotated with the board that served it.
// When Rejected is set the submission was turned away at admission:
// Board is -1, RejectReason names the outcome ("shed", "deadline",
// "quota"), and only the identifying fields are meaningful. When Failed
// is set the submission was accepted but lost permanently to board
// deaths: FailReason is "retries-exhausted" or "stranded" and Board is
// the last board that held it (or -1).
type ClusterResult struct {
	Result
	Board        int
	Rejected     bool
	RejectReason string
	Failed       bool
	FailReason   string
	// Attempts counts placements: 1 for a submission that completed
	// where it first landed, more after failover.
	Attempts int
}

// Cluster is a multi-FPGA system: Submit applications, then Run.
type Cluster struct {
	cl *cluster.Cluster
	// energy is sampled at engine quiescence during Run (see
	// System.energy for why).
	energy *hv.EnergyStats
}

// NewCluster builds a multi-FPGA deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Boards == 0 {
		cfg.Boards = 2
	}
	var d cluster.Dispatch
	switch cfg.Dispatch {
	case DispatchRoundRobin:
		d = cluster.RoundRobin
	case DispatchLeastLoaded, "":
		d = cluster.LeastLoaded
	case DispatchLeastPending:
		d = cluster.LeastPending
	case DispatchRandom:
		d = cluster.RandomBoard
	case DispatchHeteroAware:
		d = cluster.HeteroAware
	default:
		return nil, fmt.Errorf("nimblock: unknown dispatch policy %q", cfg.Dispatch)
	}
	set, err := cfg.boardConfigs(cfg.Boards, cfg.BoardSpecs)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(sim.NewEngine(), cluster.Config{
		Boards:       cfg.Boards,
		HV:           set.hv,
		BoardConfigs: set.perBoard,
		Dispatch:     d,
		Seed:         cfg.Seed,
		Admission:    cfg.Admission.internal(),
		Health:       cfg.Health.internal(),
		BoardFaults:  set.events,
	}, set.policy)
	if err != nil {
		return nil, err
	}
	return &Cluster{cl: cl}, nil
}

// Boards reports the cluster size.
func (c *Cluster) Boards() int { return c.cl.Boards() }

// Submit schedules an application arrival; the dispatcher places it on a
// board when it arrives.
func (c *Cluster) Submit(app *Application, batch, priority int, arrival time.Duration) error {
	return c.SubmitWith(app, batch, priority, arrival, SubmitOptions{})
}

// SubmitWith is Submit with admission attributes (tenant, SLO).
func (c *Cluster) SubmitWith(app *Application, batch, priority int, arrival time.Duration, opts SubmitOptions) error {
	if app == nil {
		return fmt.Errorf("nimblock: nil application")
	}
	return c.cl.SubmitWith(app.graph, batch, priority, sim.Time(sim.FromStd(arrival)), cluster.SubmitOptions{
		Tenant: opts.Tenant,
		SLO:    opts.sloSim(),
		Weight: opts.Weight,
	})
}

// AdmissionStats reports admission counters (zero when admission is
// disabled).
func (c *Cluster) AdmissionStats() AdmissionStats {
	return admissionStats(c.cl.AdmissionStats())
}

// Run executes the simulation until every application retires.
func (c *Cluster) Run() ([]ClusterResult, error) {
	raw, err := c.cl.Run()
	if err != nil {
		return nil, err
	}
	// The cluster's Run drains to quiescence (bounded by the horizon)
	// and leaves the clock at the makespan, so energy sampled here never
	// prices the idle tail out to the horizon.
	es := c.cl.Energy()
	c.energy = &es
	out := make([]ClusterResult, len(raw))
	for i, r := range raw {
		out[i] = ClusterResult{
			Result:       result(r.Result),
			Board:        r.Board,
			Rejected:     r.Rejected,
			RejectReason: r.RejectReason,
			Failed:       r.Failed,
			FailReason:   r.FailReason,
			Attempts:     r.Attempts,
		}
	}
	return out, nil
}

// Energy sums integrated energy across the fleet, sampled at the
// makespan once Run completes; zero unless the board specs carry a
// power model.
func (c *Cluster) Energy() EnergyStats { return energyStats(c.energy, c.cl.Energy()) }

// TenantServices reports the service (fabric compute time, not divided
// by weights) delivered to each tenant named in SubmitWith options,
// merged across boards.
func (c *Cluster) TenantServices() map[string]time.Duration {
	return tenantServices(c.cl.TenantServices())
}

// BoardHealth reports every board's health state by name ("healthy",
// "degraded", "draining", "dead", "recovering"); nil when the failure
// domain layer is off.
func (c *Cluster) BoardHealth() []string {
	states := c.cl.BoardStates()
	if states == nil {
		return nil
	}
	out := make([]string, len(states))
	for i, s := range states {
		out[i] = s.String()
	}
	return out
}

// FailoverStats is the cluster's board-failure accounting.
type FailoverStats struct {
	// Deaths, Freezes, Degrades, and Recoveries count board-level
	// events; Redispatched, MigratedItems, and FailedSubmissions count
	// what happened to the work on dead boards; Hedged and
	// HedgeCancelled count duplicated SLO-critical placements.
	Deaths, Freezes, Degrades, Recoveries int
	Redispatched, MigratedItems           int
	FailedSubmissions                     int
	Hedged, HedgeCancelled                int
	// WastedWork is fabric time lost to board deaths net of migrated
	// progress; MigratedWork is the progress checkpoint migration
	// preserved.
	WastedWork, MigratedWork time.Duration
}

// FailoverStats reports the board-failure accounting (zero when the
// failure domain layer is off).
func (c *Cluster) FailoverStats() FailoverStats {
	st := c.cl.FailoverStats()
	return FailoverStats{
		Deaths:            st.Deaths,
		Freezes:           st.Freezes,
		Degrades:          st.Degrades,
		Recoveries:        st.Recoveries,
		Redispatched:      st.Redispatched,
		MigratedItems:     st.MigratedItems,
		FailedSubmissions: st.FailedSubmissions,
		Hedged:            st.Hedged,
		HedgeCancelled:    st.HedgeCancelled,
		WastedWork:        st.WastedWork.Std(),
		MigratedWork:      st.MigratedWork.Std(),
	}
}
