package nimblock

import (
	"fmt"
	"time"

	"nimblock/internal/faas"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

// ServerlessConfig parameterizes a Platform: a function-as-a-service
// front-end over a multi-FPGA Nimblock cluster, with warm-board affinity
// and cold-start modelling (bitstream distribution to a board's storage
// before its first invocation there).
type ServerlessConfig struct {
	// Config applies to every board, every field as on a lone System;
	// the FaultPlan's board events (crash, hang, degrade) arm the
	// platform's failure domain, which fails invocations over off dead
	// boards.
	Config
	// Boards is the cluster size (default 4).
	Boards int
	// BoardSpecs, when non-empty, gives each board its own capability
	// spec (slots, bandwidth, latency scale, power model), making the
	// fleet heterogeneous; its length must equal Boards. A nil spec,
	// or a zero spec field, inherits the embedded Config's platform,
	// and each board's policy plans against its own shape. Placement
	// scores fold each board's latency scale and width in, so slow or
	// narrow boards attract proportionally less work.
	BoardSpecs []*BoardSpec
	// ColdStart is the bitstream-distribution delay paid the first time
	// a function lands on a board (default 500 ms).
	ColdStart time.Duration
	// ScaleUp is the per-board backlog beyond which the dispatcher pays
	// a cold start to open another board (default 4).
	ScaleUp int
	// Admission, when non-nil, bounds accepted invocations; rejections
	// come back from Run as Rejected results, not errors.
	Admission *AdmissionConfig
}

// DefaultServerlessConfig returns a 4-board platform.
func DefaultServerlessConfig() ServerlessConfig {
	return ServerlessConfig{
		Config:    DefaultConfig(),
		Boards:    4,
		ColdStart: 500 * time.Millisecond,
		ScaleUp:   4,
	}
}

// InvocationResult is one function invocation's outcome: completed,
// rejected at admission, or lost with the boards that held it.
type InvocationResult struct {
	Function string
	Board    int
	// Cold reports whether this invocation paid a cold start.
	Cold bool
	// InvokedAt is the client-side invocation instant.
	InvokedAt time.Duration
	// Latency is completion minus invocation, including any cold start.
	Latency time.Duration
	// Items echoes the invocation's input count.
	Items int
	// Rejected marks an invocation turned away at admission: Board is
	// -1, Latency 0, and RejectReason names the outcome.
	Rejected     bool
	RejectReason string
	// Failed marks an accepted invocation lost permanently to board
	// deaths (see ClusterResult.Failed): Latency is 0, FailReason is
	// "retries-exhausted" or "stranded", and Board is the last board
	// that held it (or -1).
	Failed     bool
	FailReason string
}

// PlatformStats aggregates invocation counters. Invocations counts
// accepted dispatches; Rejections counts admission rejections.
type PlatformStats struct {
	Invocations int
	ColdStarts  int
	WarmStarts  int
	Rejections  int
}

// FunctionOptions carries a function's admission attributes.
type FunctionOptions struct {
	// Tenant attributes the function's invocations for quotas and fair
	// sharing.
	Tenant string
	// SLO is the per-invocation latency budget for deadline admission.
	SLO time.Duration
	// Weight is the tenant's service weight for fairness-aware
	// scheduling (AlgoNimblockEnergy); 0 means 1. A negative, NaN or
	// infinite weight is rejected by RegisterWith.
	Weight float64
}

// Platform is the serverless front-end: Register functions, Invoke them,
// then Run.
type Platform struct {
	p *faas.Platform
	// energy is sampled at engine quiescence during Run (see
	// System.energy for why).
	energy *hv.EnergyStats
}

// NewPlatform builds a serverless platform.
func NewPlatform(cfg ServerlessConfig) (*Platform, error) {
	if cfg.Boards == 0 {
		cfg.Boards = 4
	}
	if cfg.ColdStart == 0 {
		cfg.ColdStart = 500 * time.Millisecond
	}
	if cfg.ScaleUp == 0 {
		cfg.ScaleUp = 4
	}
	set, err := cfg.boardConfigs(cfg.Boards, cfg.BoardSpecs)
	if err != nil {
		return nil, err
	}
	p, err := faas.New(sim.NewEngine(), faas.Config{
		Boards:       cfg.Boards,
		HV:           set.hv,
		BoardConfigs: set.perBoard,
		ColdStart:    sim.FromStd(cfg.ColdStart),
		ScaleUp:      cfg.ScaleUp,
		Admission:    cfg.Admission.internal(),
		BoardFaults:  set.events,
	}, set.policy)
	if err != nil {
		return nil, err
	}
	return &Platform{p: p}, nil
}

// Register adds a function backed by an application task-graph.
func (pl *Platform) Register(name string, app *Application, priority int) error {
	return pl.RegisterWith(name, app, priority, FunctionOptions{})
}

// RegisterWith is Register with admission attributes (tenant, SLO).
func (pl *Platform) RegisterWith(name string, app *Application, priority int, opts FunctionOptions) error {
	if app == nil {
		return fmt.Errorf("nimblock: nil application for function %q", name)
	}
	return pl.p.Register(name, faas.Function{
		Graph:    app.graph,
		Priority: priority,
		Tenant:   opts.Tenant,
		SLO:      sim.FromStd(opts.SLO),
		Weight:   opts.Weight,
	})
}

// AdmissionStats reports admission counters (zero when admission is
// disabled).
func (pl *Platform) AdmissionStats() AdmissionStats {
	return admissionStats(pl.p.AdmissionStats())
}

// Invoke schedules an invocation with the given number of independent
// inputs at the given time.
func (pl *Platform) Invoke(function string, items int, at time.Duration) error {
	return pl.p.Invoke(function, items, sim.Time(sim.FromStd(at)))
}

// Stats returns invocation counters.
func (pl *Platform) Stats() PlatformStats {
	s := pl.p.Stats()
	return PlatformStats{Invocations: s.Invocations, ColdStarts: s.ColdStarts, WarmStarts: s.WarmStarts, Rejections: s.Rejections}
}

// Energy sums integrated energy across the platform's boards, sampled
// at the makespan once Run completes; zero unless the board specs
// carry a power model.
func (pl *Platform) Energy() EnergyStats { return energyStats(pl.energy, pl.p.Energy()) }

// TenantServices reports the service (fabric compute time, not divided
// by weights) delivered to each function tenant, merged across boards.
func (pl *Platform) TenantServices() map[string]time.Duration {
	return tenantServices(pl.p.TenantServices())
}

// Run completes every invocation and returns results in invocation order.
func (pl *Platform) Run() ([]InvocationResult, error) {
	raw, err := pl.p.Run()
	if err != nil {
		return nil, err
	}
	// The platform's Run drains to quiescence (bounded by the horizon)
	// and leaves the clock at the makespan, so energy sampled here never
	// prices the idle tail out to the horizon.
	es := pl.p.Energy()
	pl.energy = &es
	out := make([]InvocationResult, len(raw))
	for i, r := range raw {
		out[i] = InvocationResult{
			Function:     r.Function,
			Board:        r.Board,
			Cold:         r.Cold,
			InvokedAt:    time.Duration(r.InvokedAt) * time.Microsecond,
			Latency:      r.Latency.Std(),
			Items:        r.Items,
			Rejected:     r.Rejected,
			RejectReason: r.RejectReason,
			Failed:       r.Failed,
			FailReason:   r.FailReason,
		}
	}
	return out, nil
}
