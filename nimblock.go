// Package nimblock is a Go reproduction of "Nimblock: Scheduling for
// Fine-grained FPGA Sharing through Virtualization" (ISCA 2023).
//
// It provides a virtualized, slot-based FPGA overlay — simulated in
// deterministic virtual time because the original requires a Xilinx
// ZCU106 board — together with the Nimblock hypervisor and five
// scheduling algorithms: the Nimblock algorithm itself (token-based
// candidate selection, goal-number slot allocation, cross-batch
// pipelining, and batch-preemption), a no-sharing baseline, FCFS,
// task-based PREMA, and Coyote-style round-robin.
//
// A minimal session:
//
//	sys, _ := nimblock.NewSystem(nimblock.DefaultConfig())
//	app, _ := nimblock.Benchmark(nimblock.LeNet)
//	sys.Submit(app, 5, nimblock.PriorityHigh, 0)
//	results, _ := sys.Run()
//
// Applications are slot-sized task DAGs; build custom ones with NewApp.
// Every submission carries a batch size (independent inputs processed by
// one request) and a priority level (1, 3, or 9).
package nimblock

import (
	"cmp"
	"fmt"
	"time"

	"nimblock/internal/apps"
	"nimblock/internal/experiments"
	"nimblock/internal/faults"
	"nimblock/internal/fpga"
	"nimblock/internal/hv"
	"nimblock/internal/interconnect"
	"nimblock/internal/metrics"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/trace"
)

// Priority levels used throughout the paper.
const (
	PriorityLow    = 1
	PriorityMedium = 3
	PriorityHigh   = 9
)

// Benchmark names from the paper's evaluation suite.
const (
	LeNet            = apps.LeNet
	AlexNet          = apps.AlexNet
	ImageCompression = apps.ImageCompression
	OpticalFlow      = apps.OpticalFlow
	Rendering3D      = apps.Rendering3D
	DigitRecognition = apps.DigitRecognition
)

// Algorithm selects a scheduling policy.
type Algorithm string

// Available scheduling algorithms.
const (
	// AlgoNimblock is the full Nimblock algorithm (Section 4).
	AlgoNimblock Algorithm = "Nimblock"
	// AlgoNimblockNoPreempt disables batch-preemption (ablation).
	AlgoNimblockNoPreempt Algorithm = "NimblockNoPreempt"
	// AlgoNimblockNoPipe disables cross-batch pipelining (ablation).
	AlgoNimblockNoPipe Algorithm = "NimblockNoPipe"
	// AlgoNimblockNoPreemptNoPipe disables both (ablation).
	AlgoNimblockNoPreemptNoPipe Algorithm = "NimblockNoPreemptNoPipe"
	// AlgoNimblockCheckpoint is the full algorithm plus mid-batch
	// SLO-rescue preemption; pair it with Config.Checkpoint so rescue
	// preemptions are honoured mid-item via checkpoint/restore.
	AlgoNimblockCheckpoint Algorithm = "NimblockCheckpoint"
	// AlgoBaseline gives the whole board to one application at a time.
	AlgoBaseline Algorithm = "Baseline"
	// AlgoFCFS shares slots first-come, first-served.
	AlgoFCFS Algorithm = "FCFS"
	// AlgoPREMA is the task-based PREMA comparator.
	AlgoPREMA Algorithm = "PREMA"
	// AlgoRR is the Coyote-style round-robin comparator.
	AlgoRR Algorithm = "RR"
	// AlgoNimblockEnergy is the Nimblock algorithm with goal-capped
	// (energy-conserving) slot allocation and weighted per-tenant
	// fairness; pair with SubmitTenant and a Board power model.
	AlgoNimblockEnergy Algorithm = "NimblockEnergy"
)

// Algorithms lists every available algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgoBaseline, AlgoFCFS, AlgoPREMA, AlgoRR,
		AlgoNimblock, AlgoNimblockNoPreempt, AlgoNimblockNoPipe, AlgoNimblockNoPreemptNoPipe,
		AlgoNimblockCheckpoint, AlgoNimblockEnergy,
	}
}

// Config parameterizes a System.
type Config struct {
	// Algorithm selects the scheduling policy (default AlgoNimblock).
	Algorithm Algorithm
	// Slots is the number of reconfigurable slots (default 10, the
	// ZCU106 overlay of the evaluation).
	Slots int
	// Board, when non-nil, is the board's full capability spec — slot
	// count, reconfiguration bandwidth, latency scale, and per-slot
	// power model — and overrides Slots. A power model here is what
	// makes System.Energy report non-zero joules.
	Board *BoardSpec
	// SchedInterval is the periodic scheduling interval (default 400 ms).
	SchedInterval time.Duration
	// ReconfigFaultRate injects transient reconfiguration faults with
	// the given probability (default 0). For richer scenarios use
	// FaultPlan, which overrides this knob.
	ReconfigFaultRate float64
	// FaultPlan is a deterministic fault scenario in the faults DSL:
	// one fault per line, e.g.
	//
	//	seed 42
	//	crc  prob=0.1 slot=3     # transient CRC faults on slot 3
	//	dead slot=7 at=2.5s      # permanent failure mid-run
	//	hang prob=0.01 app=LeNet # kernel hang (needs WatchdogFactor)
	//
	// See package internal/faults for the full grammar.
	FaultPlan string
	// WatchdogFactor arms the hypervisor watchdog: an item running past
	// WatchdogFactor x its HLS estimate is killed and re-executed.
	// Required to recover from injected hangs (default 0, disabled).
	WatchdogFactor float64
	// QuarantineThreshold takes a slot offline after that many injected
	// faults; schedulers re-plan for the smaller board (default 0,
	// disabled).
	QuarantineThreshold int
	// EnableTrace records a full execution trace, retrievable with
	// System.TraceDump and System.Gantt.
	EnableTrace bool
	// Interconnect selects the inter-slot data path: "" or "folded"
	// (calibrated default, data movement folded into task latencies),
	// "ps-bus" (explicit serialized transfers through the PS, as on the
	// real overlay), or "noc" (parallel mesh, the paper's future work).
	Interconnect string
	// Checkpoint enables the checkpoint/restore subsystem: items
	// checkpoint at preemption points (periodically and on demand),
	// state streams through the configuration port at a cost
	// proportional to its size, and watchdog kills, slot failures, and
	// mid-item preemptions resume from the last checkpoint instead of
	// re-executing from scratch.
	Checkpoint CheckpointConfig
	// Horizon bounds virtual time (default ~55 hours); Run fails if
	// applications are still pending then.
	Horizon time.Duration
	// Observer, when non-nil, receives every trace event live as the
	// simulation emits it — independent of EnableTrace. See the Observer
	// interface for the contract.
	Observer Observer
}

// CheckpointConfig configures the checkpoint/restore subsystem.
type CheckpointConfig struct {
	// Enabled turns the subsystem on.
	Enabled bool
	// Period saves a checkpoint periodically while an item runs (zero:
	// on-demand captures only, at preemptions).
	Period time.Duration
	// StateBytes is the per-task checkpoint state size used when an
	// application declares none (default 1 MiB).
	StateBytes int64
	// DefaultPoints is the number of uniform preemption points assumed
	// for tasks that declare none (default 9, every 10%).
	DefaultPoints int
}

// BoardSpec describes one board's capabilities for heterogeneous
// deployments. Parse one with ParseBoardSpec or fill the fields
// directly; every field except Slots treats zero as "inherit the
// platform default".
type BoardSpec struct {
	// Slots is the number of reconfigurable slots (must be >= 1).
	Slots int
	// CAPBytesPerSec and SDBytesPerSec override the reconfiguration
	// pipeline bandwidths: the configuration access port and the
	// bitstream storage feeding it.
	CAPBytesPerSec float64
	SDBytesPerSec  float64
	// LatencyScale stretches (>1) or shrinks (<1) every kernel latency
	// relative to the reference platform.
	LatencyScale float64
	// StaticWattsPerSlot burns on every usable slot for the whole run;
	// ActiveWattsPerSlot adds while a slot reconfigures or computes.
	// Together they drive System.Energy.
	StaticWattsPerSlot float64
	ActiveWattsPerSlot float64
}

// ParseBoardSpec parses a textual board spec of whitespace- or
// comma-separated key=value tokens, e.g.
//
//	"slots=8 scale=1.25 static=2.5 active=1.5"
//
// Keys: slots, cap, sd, scale, static, active (matching the BoardSpec
// fields in order). Unknown or duplicate keys, malformed numbers, and
// physically meaningless values are errors.
func ParseBoardSpec(s string) (*BoardSpec, error) {
	sp, err := fpga.ParseSpec(s)
	if err != nil {
		return nil, err
	}
	b := BoardSpec(sp)
	return &b, nil
}

// String renders the spec in the syntax ParseBoardSpec accepts,
// omitting zero (inherited) fields.
func (b BoardSpec) String() string { return fpga.Spec(b).String() }

// apply validates the spec and overlays it on a board config.
func (b *BoardSpec) apply(board fpga.Config) (fpga.Config, error) {
	sp := fpga.Spec(*b)
	if err := sp.Validate(); err != nil {
		return board, err
	}
	return sp.Apply(board), nil
}

// DefaultConfig mirrors the paper's evaluation platform with the full
// Nimblock algorithm.
func DefaultConfig() Config {
	return Config{
		Algorithm:     AlgoNimblock,
		Slots:         10,
		SchedInterval: 400 * time.Millisecond,
	}
}

// Application is a compiled task-graph ready for submission.
type Application struct {
	graph *taskgraph.Graph
}

// Name reports the application name.
func (a *Application) Name() string { return a.graph.Name() }

// NumTasks reports the number of slot-sized tasks.
func (a *Application) NumTasks() int { return a.graph.NumTasks() }

// NumEdges reports the number of dependency edges.
func (a *Application) NumEdges() int { return a.graph.NumEdges() }

// CriticalPath reports the per-item latency lower bound.
func (a *Application) CriticalPath() time.Duration { return a.graph.CriticalPath().Std() }

// TaskID identifies a task within an AppBuilder.
type TaskID int

// AppBuilder constructs a custom application DAG.
type AppBuilder struct {
	b *taskgraph.Builder
}

// NewApp starts building a custom application. Each task carries its
// per-batch-item latency; dependencies form a DAG.
func NewApp(name string) *AppBuilder {
	return &AppBuilder{b: taskgraph.NewBuilder(name)}
}

// AddTask appends a slot-sized task with the given per-item latency.
func (ab *AppBuilder) AddTask(name string, latency time.Duration) TaskID {
	return TaskID(ab.b.AddTask(name, sim.FromStd(latency)))
}

// AddDependency makes task "to" consume the output of task "from".
func (ab *AppBuilder) AddDependency(from, to TaskID) *AppBuilder {
	ab.b.AddEdge(int(from), int(to))
	return ab
}

// Chain links tasks in sequence.
func (ab *AppBuilder) Chain(ids ...TaskID) *AppBuilder {
	for i := 1; i < len(ids); i++ {
		ab.AddDependency(ids[i-1], ids[i])
	}
	return ab
}

// Build validates and freezes the application.
func (ab *AppBuilder) Build() (*Application, error) {
	g, err := ab.b.Build()
	if err != nil {
		return nil, err
	}
	return &Application{graph: g}, nil
}

// Benchmark returns one of the paper's six evaluation applications.
func Benchmark(name string) (*Application, error) {
	g, err := apps.Graph(name)
	if err != nil {
		return nil, err
	}
	return &Application{graph: g}, nil
}

// Benchmarks lists the evaluation suite names.
func Benchmarks() []string { return apps.Names() }

// Result is the per-application outcome of a run.
type Result struct {
	// App is the application name; ID disambiguates submissions.
	App string
	ID  int64
	// Batch and Priority echo the submission.
	Batch    int
	Priority int
	// Arrival, FirstLaunch, and Retire are instants in virtual time
	// since system start.
	Arrival     time.Duration
	FirstLaunch time.Duration
	Retire      time.Duration
	// Response is Retire - Arrival, the paper's primary metric.
	Response time.Duration
	// Run, Reconfig, and Wait break down where time went.
	Run      time.Duration
	Reconfig time.Duration
	Wait     time.Duration
	// Preemptions counts batch-preemptions suffered.
	Preemptions int
	// Reconfigurations counts slot configurations performed.
	Reconfigurations int
}

// Throughput reports batch items completed per second of response time.
func (r Result) Throughput() float64 {
	if r.Response <= 0 {
		return 0
	}
	return float64(r.Batch) / r.Response.Seconds()
}

// System is one virtualized FPGA with a hypervisor and a scheduling
// policy. Create with NewSystem, Submit applications, then Run.
type System struct {
	eng     *sim.Engine
	hv      *hv.Hypervisor
	horizon sim.Time
	// energy is the stats sampled at engine quiescence (the makespan)
	// during Run; Run's final clock sits at the horizon, where lazy
	// accrual would price static power over the idle tail.
	energy *hv.EnergyStats
}

// boardSet is a Config translated for a set of boards.
type boardSet struct {
	// hv configures every board without a spec of its own.
	hv hv.Config
	// perBoard is hv with each board's spec overlaid; nil without specs.
	perBoard []hv.Config
	// events are the FaultPlan's board-scoped faults (crash, hang,
	// degrade), which only a multi-board front-end acts on.
	events []faults.BoardEvent
	// policy builds a fresh scheduler planned against one board.
	policy func(hv.Config) sched.Scheduler
}

// boardConfigs is the one translation of a Config into hypervisor
// configs, so System, Cluster and Platform build every board from every
// field alike. specs, when non-empty, gives each of the n boards its
// own capability spec over the shared platform.
func (cfg Config) boardConfigs(n int, specs []*BoardSpec) (boardSet, error) {
	policy, err := experiments.Policy(string(cmp.Or(cfg.Algorithm, AlgoNimblock)))
	if err != nil {
		return boardSet{}, fmt.Errorf("nimblock: unknown algorithm %q", cfg.Algorithm)
	}
	set := boardSet{hv: hv.DefaultConfig(), policy: policy}
	hcfg := &set.hv
	if cfg.Slots > 0 {
		hcfg.Board.Slots = cfg.Slots
	}
	if cfg.Board != nil {
		board, err := cfg.Board.apply(hcfg.Board)
		if err != nil {
			return boardSet{}, err
		}
		hcfg.Board = board
	}
	if cfg.SchedInterval > 0 {
		hcfg.SchedInterval = sim.FromStd(cfg.SchedInterval)
	}
	if cfg.ReconfigFaultRate > 0 {
		hcfg.Board.FaultRate = cfg.ReconfigFaultRate
		hcfg.Board.MaxRetries = 10
	}
	if cfg.FaultPlan != "" {
		plan, err := faults.ParsePlan(cfg.FaultPlan)
		if err != nil {
			return boardSet{}, err
		}
		factory, err := plan.Factory()
		if err != nil {
			return boardSet{}, err
		}
		hcfg.Board.NewInjector = factory
		hcfg.Board.MaxRetries = 10
		set.events = plan.BoardEvents()
	}
	if cfg.WatchdogFactor > 0 {
		hcfg.WatchdogFactor = cfg.WatchdogFactor
		hcfg.WatchdogGrace = 50 * sim.Millisecond
	}
	hcfg.QuarantineThreshold = cfg.QuarantineThreshold
	if cfg.Horizon > 0 {
		hcfg.Horizon = sim.Time(sim.FromStd(cfg.Horizon))
	}
	hcfg.EnableTrace = cfg.EnableTrace
	// One observer watches every board; events carry board-local app
	// IDs, so observers aggregating per-app state should key on (App,
	// AppID).
	hcfg.Observer = wrapObserver(cfg.Observer)
	switch cfg.Interconnect {
	case "", "folded":
		hcfg.Interconnect = interconnect.DefaultConfig()
	case "ps-bus":
		hcfg.Interconnect = interconnect.DefaultPSBus()
	case "noc":
		hcfg.Interconnect = interconnect.DefaultNoC()
	default:
		return boardSet{}, fmt.Errorf("nimblock: unknown interconnect %q", cfg.Interconnect)
	}
	if cfg.Checkpoint.Enabled {
		hcfg.Checkpoint = hv.CheckpointConfig{
			Enabled:       true,
			Period:        sim.FromStd(cfg.Checkpoint.Period),
			StateBytes:    cfg.Checkpoint.StateBytes,
			DefaultPoints: cfg.Checkpoint.DefaultPoints,
		}
	}
	if len(specs) > 0 {
		if len(specs) != n {
			return boardSet{}, fmt.Errorf("nimblock: %d board specs for %d boards", len(specs), n)
		}
		set.perBoard = make([]hv.Config, n)
		for i, bs := range specs {
			set.perBoard[i] = set.hv
			if bs == nil {
				continue
			}
			board, err := bs.apply(set.hv.Board)
			if err != nil {
				return boardSet{}, fmt.Errorf("nimblock: board %d: %w", i, err)
			}
			set.perBoard[i].Board = board
		}
	}
	return set, nil
}

// NewSystem builds a virtualized FPGA system.
func NewSystem(cfg Config) (*System, error) {
	set, err := cfg.boardConfigs(1, nil)
	if err != nil {
		return nil, err
	}
	if len(set.events) > 0 {
		return nil, fmt.Errorf("nimblock: FaultPlan board faults (board-crash, board-hang, board-degrade) need NewCluster or NewPlatform")
	}
	eng := sim.NewEngine()
	h, err := hv.New(eng, set.hv, set.policy(set.hv))
	if err != nil {
		return nil, err
	}
	return &System{eng: eng, hv: h, horizon: set.hv.Horizon}, nil
}

// Submit schedules an application arrival at the given virtual time
// offset with the given batch size and priority level.
func (s *System) Submit(app *Application, batch, priority int, arrival time.Duration) error {
	if app == nil {
		return fmt.Errorf("nimblock: nil application")
	}
	return s.hv.Submit(app.graph, batch, priority, sim.Time(sim.FromStd(arrival)))
}

// SubmitTenant is Submit with a tenant label and a service weight.
// The fairness-aware AlgoNimblockEnergy policy favours tenants whose
// weighted delivered service lags; other policies ignore the label but
// still account service per tenant (see TenantServices). A weight of 0
// means 1; a negative, NaN or infinite weight is rejected.
func (s *System) SubmitTenant(app *Application, batch, priority int, arrival time.Duration, tenant string, weight float64) error {
	if app == nil {
		return fmt.Errorf("nimblock: nil application")
	}
	_, err := s.hv.SubmitTenant(app.graph, batch, priority, sim.Time(sim.FromStd(arrival)), tenant, weight)
	return err
}

// EnergyStats reports the board's integrated energy under the power
// model on Config.Board. Every field is zero when no power model is
// configured.
type EnergyStats struct {
	// StaticJoules integrates the per-slot static power over every
	// usable slot for the whole run; ActiveJoules integrates the active
	// power over occupied (reconfiguring or computing) slot time.
	StaticJoules, ActiveJoules float64
	// OccupiedSlotSeconds and UsableSlotSeconds are the underlying
	// slot-time integrals.
	OccupiedSlotSeconds, UsableSlotSeconds float64
}

// TotalJoules is static plus active energy.
func (e EnergyStats) TotalJoules() float64 { return e.StaticJoules + e.ActiveJoules }

// Energy reports integrated energy: after Run, the batch's total
// sampled at the makespan (the instant the last event fired), so
// static joules price the time the work actually needed; before Run,
// whatever has accrued at the current virtual time.
func (s *System) Energy() EnergyStats { return energyStats(s.energy, s.hv.Energy()) }

// energyStats reports the energy sampled at the makespan once Run has
// recorded it, else the live accrual.
func energyStats(sampled *hv.EnergyStats, live hv.EnergyStats) EnergyStats {
	if sampled != nil {
		live = *sampled
	}
	return EnergyStats{
		StaticJoules:        live.StaticJoules,
		ActiveJoules:        live.ActiveJoules,
		OccupiedSlotSeconds: live.OccupiedSlotSeconds,
		UsableSlotSeconds:   live.UsableSlotSeconds,
	}
}

// TenantServices reports the weighted service (occupied slot time
// divided by the submission weight) delivered to each tenant named in
// SubmitTenant calls.
func (s *System) TenantServices() map[string]time.Duration {
	return tenantServices(s.hv.TenantServices())
}

// tenantServices converts per-tenant service to wall-clock durations.
func tenantServices(raw map[string]sim.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration, len(raw))
	for tenant, d := range raw {
		out[tenant] = d.Std()
	}
	return out
}

// FairnessIndex is Jain's index over per-tenant weighted service: 1
// when every tenant got an equal weighted share, 1/n under total
// monopoly, and 1 degenerately when no tenant service was recorded.
func (s *System) FairnessIndex() float64 {
	raw := s.hv.TenantServices()
	xs := make([]float64, 0, len(raw))
	for _, d := range raw {
		xs = append(xs, d.Seconds())
	}
	return metrics.JainIndex(xs)
}

// Run executes the simulation until every submitted application retires
// and returns per-application results in submission order.
func (s *System) Run() ([]Result, error) {
	// Drain to quiescence (bounded by the horizon, so horizon
	// enforcement still sees stuck applications) and sample energy at
	// the makespan before the hypervisor's collection pass advances the
	// clock to the horizon.
	s.eng.DrainUntil(s.horizon)
	es := s.hv.Energy()
	s.energy = &es
	raw, err := s.hv.Run()
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(raw))
	for i, r := range raw {
		out[i] = result(r)
	}
	return out, nil
}

// result converts one hypervisor result to its public form.
func result(r hv.Result) Result {
	return Result{
		App:              r.App,
		ID:               r.AppID,
		Batch:            r.Batch,
		Priority:         r.Priority,
		Arrival:          time.Duration(r.Arrival) * time.Microsecond,
		FirstLaunch:      time.Duration(r.FirstLaunch) * time.Microsecond,
		Retire:           time.Duration(r.Retire) * time.Microsecond,
		Response:         r.Response.Std(),
		Run:              r.Run.Std(),
		Reconfig:         r.Reconfig.Std(),
		Wait:             r.Wait.Std(),
		Preemptions:      r.Preemptions,
		Reconfigurations: r.Reconfigurations,
	}
}

// Algorithm reports the active scheduling policy name.
func (s *System) Algorithm() string { return s.hv.Policy().Name() }

// SingleSlotLatency is the latency of the application on one slot with
// no contention — the basis of the paper's deadline analysis.
func (s *System) SingleSlotLatency(app *Application, batch int) time.Duration {
	return s.hv.SingleSlotLatency(app.graph, batch).Std()
}

// TraceDump returns the recorded execution trace (one event per line);
// empty unless Config.EnableTrace was set.
func (s *System) TraceDump() string { return s.hv.Trace().Dump() }

// TraceJSON exports the execution trace for offline analysis; empty
// unless Config.EnableTrace was set.
func (s *System) TraceJSON() ([]byte, error) { return s.hv.Trace().MarshalJSON() }

// Gantt renders per-slot occupancy over the run as ASCII art; empty
// unless Config.EnableTrace was set. The chart spans from time zero to
// the last recorded event.
func (s *System) Gantt(cols int) string {
	var end sim.Time
	for _, e := range s.hv.Trace().Events() {
		if e.At > end {
			end = e.At
		}
	}
	return s.hv.Trace().Gantt(s.hv.Board().NumSlots(), end, cols)
}

// Preemptions reports the total batch-preemptions performed across the
// run; requires Config.EnableTrace.
func (s *System) Preemptions() int {
	return s.hv.Trace().Count(trace.KindPreempt)
}

// RecoveryStats summarizes fault injection and recovery over a run.
type RecoveryStats struct {
	// FaultsInjected counts faults that fired (reconfiguration faults,
	// hangs, slowdowns); Retries and Recovered track the board's retry
	// machinery.
	FaultsInjected int
	Retries        int
	Recovered      int
	// WatchdogKills counts items killed past their deadline and
	// re-executed.
	WatchdogKills int
	// Quarantined and SlotsOffline count slots lost to the fault
	// threshold and to all causes respectively.
	Quarantined  int
	SlotsOffline int
	// WastedWork is fabric time burned on executions whose results were
	// lost. With Config.Checkpoint enabled, only progress since the last
	// checkpoint is wasted.
	WastedWork time.Duration
	// ResumedItems counts items that resumed from a checkpoint instead
	// of re-executing; SavedWork is the work those restores carried
	// over; CheckpointSaves and CheckpointFaults count state captures
	// and snapshots found lost or corrupt at restore time.
	ResumedItems     int
	CheckpointSaves  int
	CheckpointFaults int
	SavedWork        time.Duration
	// CheckpointOverhead is time spent streaming checkpoint state
	// through the configuration port (never counted in WastedWork).
	CheckpointOverhead time.Duration
	// EffectiveSlots is the time-weighted average usable slot count —
	// the board size the run actually had.
	EffectiveSlots float64
}

// Recovery reports fault-injection and recovery statistics; all zero
// when no faults were configured.
func (s *System) Recovery() RecoveryStats {
	rec := s.hv.Recovery()
	return RecoveryStats{
		FaultsInjected:     rec.FaultsInjected,
		Retries:            rec.Retries,
		Recovered:          rec.Recovered,
		WatchdogKills:      rec.WatchdogKills,
		Quarantined:        rec.Quarantined,
		SlotsOffline:       rec.SlotsOffline,
		WastedWork:         rec.WastedWork.Std(),
		ResumedItems:       rec.ResumedItems,
		CheckpointSaves:    rec.CheckpointSaves,
		CheckpointFaults:   rec.CheckpointFaults,
		SavedWork:          rec.SavedWork.Std(),
		CheckpointOverhead: rec.CheckpointOverhead.Std(),
		EffectiveSlots:     metrics.EffectiveSlots(rec.Timeline, s.eng.Now()),
	}
}
