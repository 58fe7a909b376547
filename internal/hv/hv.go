// Package hv implements the Nimblock hypervisor.
//
// The hypervisor is the system manager described in Section 2.2 of the
// paper: it accepts application submissions, registers their partial
// bitstreams, drives reconfiguration through the CAP, allocates and
// relinquishes data buffers, launches tasks, honours batch-preemption
// requests at batch boundaries, and retires completed applications. The
// scheduling *policy* is pluggable (sched.Scheduler); the hypervisor
// invokes it at scheduling intervals and on arrival/completion/
// reconfiguration events and executes whatever reconfigurations and
// preemptions it requests.
package hv

import (
	"fmt"
	"slices"

	"nimblock/internal/bitstream"
	"nimblock/internal/fpga"
	"nimblock/internal/hls"
	"nimblock/internal/interconnect"
	"nimblock/internal/mem"
	"nimblock/internal/obs"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/trace"
)

// Config collects hypervisor parameters.
type Config struct {
	// Board configures the simulated FPGA.
	Board fpga.Config
	// SchedInterval is the periodic scheduling (and slot reallocation)
	// interval; the evaluation system uses 400 ms.
	SchedInterval sim.Duration
	// MemCapacity is the shared DDR available for data buffers.
	MemCapacity int64
	// BufferBytes is the size of one inter-task data buffer.
	BufferBytes int64
	// Horizon bounds simulated time; Run fails if applications are still
	// pending at the horizon (a wedged policy, not a slow workload).
	Horizon sim.Time
	// EnableTrace records a full execution trace.
	EnableTrace bool
	// Interconnect models inter-slot data movement. The default (Folded)
	// charges nothing: the calibrated task latencies already include
	// data movement through the PS, as measured on the evaluation
	// system. PSBus and NoC make the hand-off explicit for the
	// interconnect study.
	Interconnect interconnect.Config
	// RelocatableBitstreams registers one slot-agnostic image per task
	// instead of one per (task, slot), dividing bitstream storage by the
	// slot count. Scheduling behaviour is unchanged.
	RelocatableBitstreams bool
	// Checkpoint configures the checkpoint/restore subsystem:
	// CAP-serialized size-proportional state capture at declared
	// preemption points, periodic and on-demand saves, and
	// resume-instead-of-re-execute recovery. Disabled, preemption waits
	// for the batch boundary — the paper's design, which never captures
	// FPGA state.
	Checkpoint CheckpointConfig
	// WatchdogFactor arms a per-item watchdog: an item still running
	// after WatchdogFactor x its HLS latency estimate (plus
	// WatchdogGrace) is killed and re-executed from scratch. Zero
	// disables the watchdog; without it a hung kernel wedges its slot
	// until the horizon.
	WatchdogFactor float64
	// WatchdogGrace is a fixed allowance added to every watchdog
	// deadline, absorbing short estimate misses on tiny items.
	WatchdogGrace sim.Duration
	// QuarantineThreshold takes a slot offline once its injected fault
	// count reaches the threshold, trading capacity for not burning
	// retries on a degrading region. Zero disables quarantine.
	QuarantineThreshold int
	// Observer receives every trace event live, as it is emitted,
	// independent of EnableTrace (which retains the full log in memory).
	// Attach sinks from internal/obs to watch a run in flight: metrics
	// registries, JSONL streams, span builders, invariant checkers. A
	// nil observer costs one pointer test per event — nothing allocates.
	// The observer must be safe for concurrent use if the same value is
	// shared across parallel runs (internal/experiments does this).
	Observer obs.Sink
	// OnRetire, when non-nil, is called at the instant an application
	// retires, with its board-local ID. Front-ends (the cluster
	// dispatcher, admission control) use it to track in-flight work
	// without polling the hypervisor.
	OnRetire func(id int64)
}

// DefaultStateBytes is the per-task checkpoint state size assumed when
// neither the task graph nor the config declares one: 1 MiB of BRAM and
// register context, ~9 ms through the default CAP.
const DefaultStateBytes = 1 << 20

// DefaultCheckpointPoints is the number of uniformly spaced preemption
// points assumed for tasks that declare none (snapshots at every 10% of
// an item).
const DefaultCheckpointPoints = 9

// CheckpointConfig parameterizes the checkpoint/restore subsystem.
type CheckpointConfig struct {
	// Enabled turns the subsystem on: items checkpoint at declared
	// preemption points, watchdog kills and slot failures resume from
	// the last checkpoint instead of re-executing from scratch, and
	// mid-item preemption requests capture state before releasing the
	// slot. All state moves through the CAP at its configured bandwidth,
	// serialized with reconfigurations.
	Enabled bool
	// Period, when positive, saves a checkpoint periodically while an
	// item runs (skipped when no new preemption point has been passed).
	// Zero means on-demand captures only.
	Period sim.Duration
	// StateBytes is the per-task state size used when a task declares
	// none (taskgraph.Task.StateBytes). Zero selects DefaultStateBytes.
	StateBytes int64
	// DefaultPoints is the number of uniform preemption points assumed
	// for tasks that declare none. Zero selects DefaultCheckpointPoints.
	DefaultPoints int
}

// DefaultConfig mirrors the paper's evaluation platform.
func DefaultConfig() Config {
	return Config{
		Board:         fpga.DefaultConfig(),
		SchedInterval: 400 * sim.Millisecond,
		MemCapacity:   4 << 30, // ZCU106 PS-side DDR4
		BufferBytes:   4 << 20,
		Horizon:       sim.Time(200_000 * sim.Second),
	}
}

// Result is the per-application outcome used by all experiments.
type Result struct {
	AppID    int64
	App      string
	Batch    int
	Priority int

	Arrival     sim.Time
	FirstLaunch sim.Time
	Retire      sim.Time

	// Response is retirement minus arrival — the paper's primary metric.
	Response sim.Duration
	// Run is the summed execution time of all items across all tasks.
	Run sim.Duration
	// Reconfig is the total partial-reconfiguration time spent for this
	// application (including re-configurations after preemption).
	Reconfig sim.Duration
	// Wait is the time from arrival until the first item starts.
	Wait sim.Duration

	Preemptions      int
	Reconfigurations int
}

// Throughput reports completed items per second of response time.
func (r Result) Throughput() float64 {
	if r.Response <= 0 {
		return 0
	}
	return float64(r.Batch) / r.Response.Seconds()
}

// SlotSample records the usable slot count at one instant. A run's
// timeline starts with one sample at construction and gains one each
// time a slot leaves service.
type SlotSample struct {
	At     sim.Time
	Usable int
}

// RecoveryStats aggregates fault-injection and recovery activity over a
// run (see Recovery).
type RecoveryStats struct {
	// FaultsInjected counts faults that fired: reconfiguration faults
	// from the board plus execution hangs and slowdowns.
	FaultsInjected int
	// Retries and Recovered mirror the board's reconfiguration retry
	// accounting: faulted attempts retried, and requests that
	// eventually succeeded after at least one retry.
	Retries   int
	Recovered int
	// WatchdogKills counts items killed for running past their deadline.
	WatchdogKills int
	// Quarantined counts slots removed by the fault-threshold policy.
	// SlotsOffline additionally includes permanent hardware failures.
	Quarantined  int
	SlotsOffline int
	// WastedWork is fabric time consumed by executions whose results
	// were lost — hung or killed items that re-execute from scratch.
	// With checkpointing enabled, only progress since the last
	// checkpoint is wasted; work up to the checkpoint is committed.
	WastedWork sim.Duration
	// ResumedItems counts items that resumed from a checkpoint instead
	// of re-executing from scratch (one per successful restore).
	ResumedItems int
	// CheckpointSaves counts completed state captures; CheckpointFaults
	// counts restores that found their snapshot lost or corrupt and fell
	// back to from-scratch re-execution.
	CheckpointSaves  int
	CheckpointFaults int
	// SavedWork is nominal work carried over by restores — fabric time
	// that would have been re-executed without checkpointing.
	SavedWork sim.Duration
	// CheckpointOverhead is wall time spent capturing and restoring
	// state through the CAP (never double-counted into WastedWork).
	CheckpointOverhead sim.Duration
	// Timeline tracks the effective board size over the run.
	Timeline []SlotSample
}

// slotRuntime is the hypervisor's view of one slot.
type slotRuntime struct {
	app       *sched.App
	task      int
	active    bool // reconfiguration finished, logic live
	curItem   int  // item in flight, -1 if waiting at a batch boundary
	preempt   bool // preemption requested
	saving    bool // checkpoint save in progress
	restoring bool // checkpoint restore streaming back through the CAP
	hung      bool // injected hang: no completion event is coming
	itemEv    sim.EventID
	wdEv      sim.EventID
	ckptEv    sim.EventID // periodic checkpoint timer
	itemStart sim.Time    // start of the current run stretch

	// Per-attempt bookkeeping. An attempt is one
	// MarkItemStarted..{done,killed,preempted} episode; periodic saves
	// pause and resume it without ending it. Without checkpointing, base
	// and doneNominal stay zero.
	base        sim.Duration // nominal progress restored at attempt start
	doneNominal sim.Duration // nominal progress of earlier stretches this attempt
	doneWall    sim.Duration // wall compute of earlier stretches this attempt
	factor      float64      // injected slowdown of this attempt (>= 1)
	wdLeft      sim.Duration // watchdog budget left for this attempt
}

// ckptRecord is one saved snapshot: the nominal work it captured and
// the state size to stream back.
type ckptRecord struct {
	progress sim.Duration
	bytes    int64
}

// prodInfo records where and when a (task, item) was produced, for
// interconnect hand-off computation.
type prodInfo struct {
	at   sim.Time
	slot int
}

// Hypervisor executes submissions under one scheduling policy.
type Hypervisor struct {
	eng    *sim.Engine
	cfg    Config
	board  *fpga.Board
	store  *bitstream.Store
	mem    *mem.Manager
	policy sched.Scheduler
	log    *trace.Log
	obs    obs.Sink

	apps     []*sched.App
	pending  []*sched.App
	transit  []*sched.App // submitted, arrival event not yet fired
	slots    []slotRuntime
	acct     map[int64]*Result
	bufOut   map[int64]map[int]int64 // app -> task -> output buffer ID
	ic       *interconnect.Model
	handoff  map[int64]map[[3]int]sim.Time   // app -> (pred, succ, item) -> data-ready time
	prodAt   map[int64]map[[2]int]prodInfo   // app -> (task, item) -> production record
	ckpt     map[int64]map[[2]int]ckptRecord // app -> (task, item) -> last checkpoint
	slotBusy []sim.Duration                  // per-slot occupied time (reconfig + compute)
	results  []Result
	nextID   int64

	// rec accumulates hypervisor-side recovery counters (exec faults,
	// watchdog kills, quarantines, wasted work, the slot timeline);
	// Recovery() merges in the board's reconfiguration-side numbers.
	rec RecoveryStats

	tickPending bool
	err         error

	// Board-level failure-domain state (see failover.go). progress is
	// the monotonic heartbeat counter liveness polls compare; frozen
	// stops all event processing (board-hang); dead additionally means
	// the board was evacuated and will never serve again; slow is a
	// board-wide degrade multiplier applied at item start; abortedIDs
	// marks hedge-cancelled submissions whose in-flight reconfigurations
	// must be dropped on completion.
	progress   uint64
	frozen     bool
	dead       bool
	slow       float64
	abortedIDs map[int64]bool

	// scale is the board's fabric latency scale factor (heterogeneous
	// fleets; 1 on the reference platform). It stretches compute time
	// exactly like a board-wide degrade, but permanently and in either
	// direction, and widens watchdog deadlines to match.
	scale float64

	// tenantSvc accumulates fabric compute time delivered per tenant;
	// fairness-aware policies read it through the World interface and
	// reports compute Jain's index over it. Apps without a tenant are
	// not tracked.
	tenantSvc map[string]sim.Duration

	// Pre-bound closures for the per-event hot path: scheduling a tick,
	// wake, or data-ready retry must not allocate a fresh closure each
	// time (these fire millions of times per run).
	tickFn  func()
	wakeFns [5]func()        // indexed by sched.Reason
	kickFns []func()         // per-slot tryStart retries
	owners  map[int64]string // app ID -> buffer-owner label
}

// New builds a hypervisor on the given engine with the given policy.
func New(eng *sim.Engine, cfg Config, policy sched.Scheduler) (*Hypervisor, error) {
	if policy == nil {
		return nil, fmt.Errorf("hv: nil scheduling policy")
	}
	if cfg.SchedInterval <= 0 {
		return nil, fmt.Errorf("hv: scheduling interval must be positive")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("hv: horizon must be positive")
	}
	if cfg.BufferBytes <= 0 {
		return nil, fmt.Errorf("hv: buffer size must be positive")
	}
	if cfg.RelocatableBitstreams {
		cfg.Board.AllowRelocation = true
	}
	if cfg.WatchdogFactor < 0 || cfg.WatchdogGrace < 0 {
		return nil, fmt.Errorf("hv: negative watchdog parameters")
	}
	if cfg.QuarantineThreshold < 0 {
		return nil, fmt.Errorf("hv: negative quarantine threshold")
	}
	if cfg.Checkpoint.Enabled {
		if cfg.Checkpoint.Period < 0 || cfg.Checkpoint.StateBytes < 0 || cfg.Checkpoint.DefaultPoints < 0 {
			return nil, fmt.Errorf("hv: negative checkpoint parameters")
		}
		if cfg.Checkpoint.StateBytes == 0 {
			cfg.Checkpoint.StateBytes = DefaultStateBytes
		}
		if cfg.Checkpoint.DefaultPoints == 0 {
			cfg.Checkpoint.DefaultPoints = DefaultCheckpointPoints
		}
	}
	mm, err := mem.NewManager(cfg.MemCapacity)
	if err != nil {
		return nil, err
	}
	ic, err := interconnect.New(cfg.Interconnect)
	if err != nil {
		return nil, err
	}
	h := &Hypervisor{
		eng:     eng,
		store:   bitstream.NewStore(),
		mem:     mm,
		policy:  policy,
		acct:    map[int64]*Result{},
		bufOut:  map[int64]map[int]int64{},
		ic:      ic,
		handoff: map[int64]map[[3]int]sim.Time{},
		prodAt:  map[int64]map[[2]int]prodInfo{},
		ckpt:    map[int64]map[[2]int]ckptRecord{},
		owners:  map[int64]string{},

		tenantSvc: map[string]sim.Duration{},
	}
	h.tickFn = func() {
		h.tickPending = false
		if len(h.pending) == 0 || h.err != nil || h.halted() {
			return
		}
		// The periodic tick is also the liveness heartbeat: it keeps
		// firing while work is pending no matter how slowly items run, so
		// only a genuinely frozen board (halted guard above) ever reads
		// as static progress to the fleet monitor.
		h.progress++
		h.poke(sched.ReasonTick)
		h.ensureTick()
	}
	for r := range h.wakeFns {
		why := sched.Reason(r)
		h.wakeFns[r] = func() { h.poke(why) }
	}
	// Observe every board fault for retry tracing and accounting,
	// chaining any caller-provided hook.
	userFault := cfg.Board.OnFault
	cfg.Board.OnFault = func(ev fpga.FaultEvent) {
		h.onFault(ev)
		if userFault != nil {
			userFault(ev)
		}
	}
	board, err := fpga.NewBoard(eng, cfg.Board)
	if err != nil {
		return nil, err
	}
	h.cfg = cfg
	h.board = board
	h.scale = board.LatencyScale()
	h.slots = make([]slotRuntime, board.NumSlots())
	h.slotBusy = make([]sim.Duration, board.NumSlots())
	h.kickFns = make([]func(), board.NumSlots())
	for i := range h.kickFns {
		slot := i
		h.kickFns[i] = func() { h.tryStart(slot) }
	}
	if cfg.EnableTrace {
		h.log = trace.New()
	}
	h.obs = cfg.Observer
	for i := range h.slots {
		h.slots[i].curItem = -1
	}
	h.rec.Timeline = []SlotSample{{At: eng.Now(), Usable: board.UsableSlots()}}
	// Plan-known permanent failures are driven from here rather than the
	// board so a failure can kill a slot even while a task runs in it.
	if inj := board.Injector(); inj != nil {
		for _, f := range inj.PermanentFailures() {
			if f.Slot < 0 || f.Slot >= board.NumSlots() {
				return nil, fmt.Errorf("hv: fault plan kills slot %d, board has %d slots", f.Slot, board.NumSlots())
			}
			f := f
			eng.At(f.At, func() { h.forceOffline(f.Slot) })
		}
	}
	return h, nil
}

// Policy returns the scheduling policy in use.
func (h *Hypervisor) Policy() sched.Scheduler { return h.policy }

// Board exposes the simulated FPGA (for tests and reports).
func (h *Hypervisor) Board() *fpga.Board { return h.board }

// Mem exposes the buffer manager (for tests and reports).
func (h *Hypervisor) Mem() *mem.Manager { return h.mem }

// Trace returns the execution trace, or nil when tracing is disabled.
func (h *Hypervisor) Trace() *trace.Log { return h.log }

// Interconnect exposes the inter-slot data-movement model.
func (h *Hypervisor) Interconnect() *interconnect.Model { return h.ic }

// Store exposes the bitstream filesystem (for tests and reports).
func (h *Hypervisor) Store() *bitstream.Store { return h.store }

// Err reports the first mechanical error encountered (policy contract
// violations surface here and abort the run).
func (h *Hypervisor) Err() error { return h.err }

// Recovery reports the run's fault-injection and recovery statistics,
// merging the board's reconfiguration-side accounting with the
// hypervisor's execution-side counters.
func (h *Hypervisor) Recovery() RecoveryStats {
	out := h.rec
	bs := h.board.Stats()
	out.FaultsInjected += bs.Faults
	out.Retries = bs.Retries
	out.Recovered = bs.Recovered
	out.SlotsOffline = bs.Offline
	out.Timeline = append([]SlotSample(nil), h.rec.Timeline...)
	return out
}

// EnergyStats reports the power model evaluated over a run: static
// power integrates over usable slots (leakage burns whether or not
// logic runs; offline slots stop drawing), active power over occupied
// slots (reconfiguring or loaded). Computed post hoc from the board's
// occupancy integrals — energy never feeds back into scheduling
// decisions except through the explicit NimblockEnergy policy.
type EnergyStats struct {
	// StaticJoules and ActiveJoules split total energy by term.
	StaticJoules float64
	ActiveJoules float64
	// OccupiedSlotSeconds and UsableSlotSeconds expose the underlying
	// integrals (slot-seconds) for conservation checks.
	OccupiedSlotSeconds float64
	UsableSlotSeconds   float64
}

// TotalJoules is the run's total energy under the power model.
func (e EnergyStats) TotalJoules() float64 { return e.StaticJoules + e.ActiveJoules }

// Add sums two energy reports term by term (aggregating boards).
func (e EnergyStats) Add(o EnergyStats) EnergyStats {
	return EnergyStats{
		StaticJoules:        e.StaticJoules + o.StaticJoules,
		ActiveJoules:        e.ActiveJoules + o.ActiveJoules,
		OccupiedSlotSeconds: e.OccupiedSlotSeconds + o.OccupiedSlotSeconds,
		UsableSlotSeconds:   e.UsableSlotSeconds + o.UsableSlotSeconds,
	}
}

// Energy evaluates the board's power model at the current virtual time.
// With no power configured (the default) every term is zero.
func (h *Hypervisor) Energy() EnergyStats {
	occ := h.board.OccupiedSlotTime().Seconds()
	us := h.board.UsableSlotTime().Seconds()
	return EnergyStats{
		StaticJoules:        h.cfg.Board.StaticWattsPerSlot * us,
		ActiveJoules:        h.cfg.Board.ActiveWattsPerSlot * occ,
		OccupiedSlotSeconds: occ,
		UsableSlotSeconds:   us,
	}
}

// Submit schedules an application arrival. The graph's bitstreams are
// registered with the store (one per task per slot) and the application
// joins the pending queue at the arrival time.
func (h *Hypervisor) Submit(g *taskgraph.Graph, batch, priority int, arrival sim.Time) error {
	_, err := h.SubmitID(g, batch, priority, arrival)
	return err
}

// SubmitTenant is SubmitID with a tenant attribution: fabric compute
// time delivered to the submission accrues to the tenant's service
// account (TenantService), weighted by the tenant's share for fairness
// arithmetic. Weight 0 means 1.
func (h *Hypervisor) SubmitTenant(g *taskgraph.Graph, batch, priority int, arrival sim.Time, tenant string, weight float64) (int64, error) {
	if weight < 0 {
		return 0, fmt.Errorf("hv: negative tenant weight %v", weight)
	}
	id, err := h.SubmitID(g, batch, priority, arrival)
	if err != nil {
		return 0, err
	}
	a := h.apps[len(h.apps)-1]
	a.Tenant, a.Weight = tenant, weight
	return id, nil
}

// SubmitID is Submit returning the board-local application ID assigned
// to the submission, which OnRetire later reports back. Dispatchers that
// must correlate completions with their own records use this form.
func (h *Hypervisor) SubmitID(g *taskgraph.Graph, batch, priority int, arrival sim.Time) (int64, error) {
	report := hls.Analyze(g)
	var err error
	if h.cfg.RelocatableBitstreams {
		err = h.store.RegisterRelocatable(g, report, batch, priority)
	} else {
		err = h.store.Register(g, report, h.board.NumSlots(), batch, priority)
	}
	if err != nil {
		return 0, err
	}
	h.nextID++
	app, err := sched.NewApp(h.nextID, g, report, batch, priority, arrival)
	if err != nil {
		return 0, err
	}
	h.apps = append(h.apps, app)
	h.transit = append(h.transit, app)
	h.eng.At(arrival, func() { h.arrive(app) })
	return app.ID, nil
}

func (h *Hypervisor) arrive(app *sched.App) {
	if h.halted() || app.Retired() {
		// A dead or frozen board processes no arrivals (evacuation
		// re-homes in-transit work); an aborted hedge copy never lands.
		return
	}
	for i, a := range h.transit {
		if a == app {
			h.transit = append(h.transit[:i], h.transit[i+1:]...)
			break
		}
	}
	h.pending = append(h.pending, app)
	slices.SortStableFunc(h.pending, func(x, y *sched.App) int {
		if x.Arrival != y.Arrival {
			if x.Arrival < y.Arrival {
				return -1
			}
			return 1
		}
		if x.ID < y.ID {
			return -1
		}
		if x.ID > y.ID {
			return 1
		}
		return 0
	})
	h.acct[app.ID] = &Result{
		AppID:       app.ID,
		App:         app.Name,
		Batch:       app.Batch,
		Priority:    app.Priority,
		Arrival:     app.Arrival,
		FirstLaunch: -1,
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindArrival, App: app.Name, AppID: app.ID, Task: -1, Slot: -1, Item: -1})
	h.ensureTick()
	h.poke(sched.ReasonArrival)
}

// ensureTick keeps the periodic scheduling interval alive while
// applications are pending.
func (h *Hypervisor) ensureTick() {
	if h.tickPending || len(h.pending) == 0 || h.err != nil || h.halted() {
		return
	}
	h.tickPending = true
	h.eng.After(h.cfg.SchedInterval, h.tickFn)
}

// poke invokes the policy unless the run has already failed.
func (h *Hypervisor) poke(why sched.Reason) {
	if h.err != nil || h.halted() {
		return
	}
	h.policy.Schedule(h, why)
}

// wake defers a poke to the next event at the same virtual time; used
// when the trigger occurs inside a policy callback (re-entrancy guard).
func (h *Hypervisor) wake(why sched.Reason) {
	if int(why) < len(h.wakeFns) && h.wakeFns[why] != nil {
		h.eng.After(0, h.wakeFns[why])
		return
	}
	h.eng.After(0, func() { h.poke(why) })
}

// fail records a mechanical error; the run aborts.
func (h *Hypervisor) fail(err error) error {
	if h.err == nil {
		h.err = err
		h.eng.Stop()
	}
	return err
}

// trace records an event in the in-memory log (when enabled) and fans
// it out to the live observer (when attached). The disabled path — nil
// log, nil observer — must stay allocation-free: it runs once per event
// on the simulator hot path (a test in this package enforces it).
func (h *Hypervisor) trace(e trace.Event) {
	// Every emitted event is one heartbeat: a frozen board emits nothing
	// (its callbacks are guarded), so liveness polls see the counter
	// stall and declare the board dead.
	h.progress++
	h.log.Add(e)
	if h.obs != nil {
		h.obs.Observe(e)
	}
}

// onFault observes every injected reconfiguration fault on the board.
// Retried attempts are traced here; a request's terminal failure is
// traced as KindFault on the reconfigDone error path.
func (h *Hypervisor) onFault(ev fpga.FaultEvent) {
	if !ev.WillRetry {
		return
	}
	e := trace.Event{At: h.eng.Now(), Kind: trace.KindRetry, AppID: -1, Task: -1, Slot: ev.Slot, Item: -1}
	if rt := &h.slots[ev.Slot]; rt.app != nil {
		e.App, e.AppID, e.Task = rt.app.Name, rt.app.ID, rt.task
	}
	h.trace(e)
}

// noteOffline traces a slot's departure and extends the slot timeline.
func (h *Hypervisor) noteOffline(slot int) {
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindSlotOffline, AppID: -1, Task: -1, Slot: slot, Item: -1})
	h.rec.Timeline = append(h.rec.Timeline, SlotSample{At: h.eng.Now(), Usable: h.board.UsableSlots()})
}

// quarantine retires a free slot whose fault count crossed the
// threshold; the policy's goal numbers adapt to the smaller board at the
// next scheduling opportunity.
func (h *Hypervisor) quarantine(slot int) {
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindQuarantine, AppID: -1, Task: -1, Slot: slot, Item: -1})
	if err := h.board.SetOffline(slot); err != nil {
		h.fail(err)
		return
	}
	h.rec.Quarantined++
	h.noteOffline(slot)
}

// forceOffline is the permanent-failure path: the slot dies at a
// plan-known time regardless of what it is doing. A running occupant is
// killed — its lost item re-executes elsewhere — and the slot leaves
// service for good.
func (h *Hypervisor) forceOffline(slot int) {
	if h.err != nil || h.halted() || !h.board.SlotUsable(slot) {
		return
	}
	rt := &h.slots[slot]
	if rt.app != nil && rt.active {
		a, task := rt.app, rt.task
		h.eng.Cancel(rt.itemEv)
		h.eng.Cancel(rt.wdEv)
		h.eng.Cancel(rt.ckptEv)
		if rt.curItem >= 0 {
			// Only progress since the last checkpoint is lost; the
			// snapshot survives the slot and resumes elsewhere.
			h.abortAccounting(slot, rt)
		}
		if _, err := a.MarkKilled(task); err != nil {
			h.fail(err)
			return
		}
		if err := h.board.Release(slot); err != nil {
			h.fail(err)
			return
		}
		h.slots[slot] = slotRuntime{curItem: -1}
	}
	// A reconfiguring slot cannot be released mid-stream; SetOffline
	// instead arranges for the in-flight stream to fail fatally, which
	// funnels through the reconfigDone error path (including its
	// noteOffline call).
	if err := h.board.SetOffline(slot); err != nil {
		h.fail(err)
		return
	}
	if !h.board.SlotUsable(slot) {
		h.noteOffline(slot)
	}
	h.wake(sched.ReasonSlotFree)
}

// watchdogFire kills a task whose in-flight item outlived its deadline.
// The slot is released, the lost progress is accounted as wasted work,
// and the item re-executes when the task is rescheduled — from its last
// checkpoint when checkpointing is enabled, from scratch otherwise.
func (h *Hypervisor) watchdogFire(slot int, a *sched.App, task, item int) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if rt.app != a || rt.task != task || rt.curItem != item || rt.saving {
		return // stale timer: the item completed or the slot moved on
	}
	h.eng.Cancel(rt.itemEv)
	h.eng.Cancel(rt.ckptEv)
	h.rec.WatchdogKills++
	// Only progress since the last checkpoint is wasted; work up to the
	// snapshot is committed and never re-executed.
	h.abortAccounting(slot, rt)
	aborted, err := a.MarkKilled(task)
	if err != nil {
		h.fail(err)
		return
	}
	if aborted != item {
		h.fail(fmt.Errorf("hv: watchdog on slot %d aborted item %d, expected %d", slot, aborted, item))
		return
	}
	if err := h.board.Release(slot); err != nil {
		h.fail(err)
		return
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindWatchdog, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item})
	h.slots[slot] = slotRuntime{curItem: -1}
	h.wake(sched.ReasonSlotFree)
}

// ---- sched.World implementation ----

// Now implements sched.World.
func (h *Hypervisor) Now() sim.Time { return h.eng.Now() }

// NumSlots implements sched.World.
func (h *Hypervisor) NumSlots() int { return h.board.NumSlots() }

// UsableSlots implements sched.World.
func (h *Hypervisor) UsableSlots() int { return h.board.UsableSlots() }

// SlotUsable implements sched.World.
func (h *Hypervisor) SlotUsable(slot int) bool { return h.board.SlotUsable(slot) }

// FreeSlots implements sched.World.
func (h *Hypervisor) FreeSlots() []int { return h.board.FreeSlots() }

// CAPBusy implements sched.World.
func (h *Hypervisor) CAPBusy() bool { return h.board.CAPBusy() }

// Apps implements sched.World: pending applications in arrival order.
func (h *Hypervisor) Apps() []*sched.App { return h.pending }

// SlotOccupant implements sched.World.
func (h *Hypervisor) SlotOccupant(slot int) (*sched.App, int, bool) {
	rt := &h.slots[slot]
	if rt.app == nil {
		return nil, 0, false
	}
	return rt.app, rt.task, true
}

// SlotWaiting implements sched.World: loaded and idle at a batch boundary.
func (h *Hypervisor) SlotWaiting(slot int) bool {
	rt := &h.slots[slot]
	return rt.app != nil && rt.active && rt.curItem == -1
}

// PreemptRequested implements sched.World.
func (h *Hypervisor) PreemptRequested(slot int) bool { return h.slots[slot].preempt }

// TenantService implements sched.World: fabric compute time delivered
// to the tenant so far (zero for unknown or empty tenants).
func (h *Hypervisor) TenantService(tenant string) sim.Duration { return h.tenantSvc[tenant] }

// TenantServices returns a copy of the per-tenant service accounts for
// reports and fairness analysis.
func (h *Hypervisor) TenantServices() map[string]sim.Duration {
	out := make(map[string]sim.Duration, len(h.tenantSvc))
	for k, v := range h.tenantSvc {
		out[k] = v
	}
	return out
}

// addService accrues delivered compute time to the app's tenant; apps
// submitted without a tenant cost one string compare and nothing else.
func (h *Hypervisor) addService(a *sched.App, d sim.Duration) {
	if a.Tenant == "" || d <= 0 {
		return
	}
	h.tenantSvc[a.Tenant] += d
}

// Reconfigure implements sched.World: configure app's task into the slot.
func (h *Hypervisor) Reconfigure(slot int, a *sched.App, task int) error {
	if slot < 0 || slot >= len(h.slots) {
		return h.fail(fmt.Errorf("hv: reconfigure slot %d out of range", slot))
	}
	if h.slots[slot].app != nil {
		return h.fail(fmt.Errorf("hv: reconfigure occupied slot %d", slot))
	}
	if a == nil || a.Retired() {
		return h.fail(fmt.Errorf("hv: reconfigure slot %d for retired or nil app", slot))
	}
	if !a.Configurable(task) {
		return h.fail(fmt.Errorf("hv: %s task %d not configurable (state %v)", a.Name, task, a.TaskState(task)))
	}
	img, err := h.store.Lookup(a.Name, task, slot)
	if err != nil {
		return h.fail(err)
	}
	if err := a.MarkConfiguring(task, slot); err != nil {
		return h.fail(err)
	}
	h.slots[slot] = slotRuntime{app: a, task: task, curItem: -1}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindReconfigStart, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
	if err := h.board.Reconfigure(slot, img, func(err error) { h.reconfigDone(slot, a, task, img, err) }); err != nil {
		return h.fail(err)
	}
	return nil
}

func (h *Hypervisor) reconfigDone(slot int, a *sched.App, task int, img *bitstream.Image, err error) {
	if h.halted() {
		return // frozen or dead: the board never sees the completion
	}
	if h.abortedIDs[a.ID] {
		// Hedge-cancelled mid-reconfiguration: drop the stream's result
		// and free the slot for live work.
		if err == nil {
			if e := h.board.Release(slot); e != nil {
				h.fail(e)
				return
			}
		}
		h.slots[slot] = slotRuntime{curItem: -1}
		h.wake(sched.ReasonSlotFree)
		return
	}
	rt := &h.slots[slot]
	if err != nil {
		// Unrecoverable fault: give the task back to the policy.
		h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindFault, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
		if e := a.MarkConfigFailed(task); e != nil {
			h.fail(e)
			return
		}
		h.slots[slot] = slotRuntime{curItem: -1}
		if !h.board.SlotUsable(slot) {
			// The fault was fatal: the board already retired the slot.
			h.noteOffline(slot)
		} else if th := h.cfg.QuarantineThreshold; th > 0 && h.board.SlotStats(slot).Faults >= th {
			h.quarantine(slot)
		}
		h.poke(sched.ReasonSlotFree)
		return
	}
	if e := a.MarkActive(task); e != nil {
		h.fail(e)
		return
	}
	rt.active = true
	res := h.acct[a.ID]
	res.Reconfig += h.board.ReconfigTime(img)
	res.Reconfigurations++
	h.slotBusy[slot] += h.board.ReconfigTime(img)
	if e := h.allocOutputBuffer(a, task); e != nil {
		h.fail(e)
		return
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindReconfigDone, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
	h.tryStart(slot)
	h.poke(sched.ReasonReconfigDone)
}

// owner returns the application's buffer-owner label, formatted once
// per app instead of once per allocation and release.
func (h *Hypervisor) owner(a *sched.App) string {
	s, ok := h.owners[a.ID]
	if !ok {
		s = fmt.Sprintf("%s#%d", a.Name, a.ID)
		h.owners[a.ID] = s
	}
	return s
}

// taskLabels pre-formats the output-buffer labels for the task indices
// any real graph uses; taskLabel falls back to formatting past that.
var taskLabels = [...]string{
	"task0.out", "task1.out", "task2.out", "task3.out",
	"task4.out", "task5.out", "task6.out", "task7.out",
	"task8.out", "task9.out", "task10.out", "task11.out",
	"task12.out", "task13.out", "task14.out", "task15.out",
}

func taskLabel(t int) string {
	if t >= 0 && t < len(taskLabels) {
		return taskLabels[t]
	}
	return fmt.Sprintf("task%d.out", t)
}

// allocOutputBuffer gives the task a place to write results; consumers
// hold references until they finish the batch. Re-activations after
// preemption reuse the existing buffer.
func (h *Hypervisor) allocOutputBuffer(a *sched.App, task int) error {
	m, ok := h.bufOut[a.ID]
	if !ok {
		m = map[int]int64{}
		h.bufOut[a.ID] = m
	}
	if _, exists := m[task]; exists {
		return nil
	}
	refs := len(a.Graph.Succ(task))
	if refs == 0 {
		refs = 1 // sink: released when the task itself completes
	}
	b, err := h.mem.Allocate(h.owner(a), taskLabel(task), h.cfg.BufferBytes, refs)
	if err != nil {
		return err
	}
	m[task] = b.ID
	return nil
}

// RequestPreempt implements sched.World. Idempotent; honoured at the next
// batch boundary, immediately if the task is already waiting, or by an
// on-demand state capture when checkpointing is enabled.
func (h *Hypervisor) RequestPreempt(slot int) error {
	if slot < 0 || slot >= len(h.slots) {
		return h.fail(fmt.Errorf("hv: preempt slot %d out of range", slot))
	}
	rt := &h.slots[slot]
	if rt.app == nil || !rt.active {
		return h.fail(fmt.Errorf("hv: preempt slot %d with no active task", slot))
	}
	if rt.preempt {
		return nil
	}
	rt.preempt = true
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindPreemptRequest, App: rt.app.Name, AppID: rt.app.ID, Task: rt.task, Slot: slot, Item: -1})
	if rt.curItem == -1 {
		h.doPreempt(slot)
		return nil
	}
	if h.ckptOn() {
		h.startOnDemandCheckpoint(slot)
	}
	return nil
}

// ---- checkpoint/restore subsystem (Config.Checkpoint) ----

// ckptOn reports whether the checkpoint/restore subsystem is live.
func (h *Hypervisor) ckptOn() bool { return h.cfg.Checkpoint.Enabled }

// taskStateBytes is the checkpointable state size of one task: declared
// on the graph, or the configured default.
func (h *Hypervisor) taskStateBytes(a *sched.App, task int) int64 {
	if b := a.Graph.Task(task).StateBytes; b > 0 {
		return b
	}
	return h.cfg.Checkpoint.StateBytes
}

func (h *Hypervisor) ckptGet(appID int64, task, item int) (ckptRecord, bool) {
	m, ok := h.ckpt[appID]
	if !ok {
		return ckptRecord{}, false
	}
	rec, ok := m[[2]int{task, item}]
	return rec, ok
}

func (h *Hypervisor) ckptPut(appID int64, task, item int, rec ckptRecord) {
	m, ok := h.ckpt[appID]
	if !ok {
		m = map[[2]int]ckptRecord{}
		h.ckpt[appID] = m
	}
	m[[2]int{task, item}] = rec
}

func (h *Hypervisor) ckptDelete(appID int64, task, item int) {
	if m, ok := h.ckpt[appID]; ok {
		delete(m, [2]int{task, item})
	}
}

// stretchDur scales nominal work by a slowdown (>1) or speed-up (<1)
// factor; non-positive factors mean "no scaling" (unset).
func stretchDur(d sim.Duration, f float64) sim.Duration {
	if f <= 0 || f == 1 {
		return d
	}
	return sim.Duration(float64(d) * f)
}

// unstretchDur converts consumed wall time back to nominal progress.
func unstretchDur(d sim.Duration, f float64) sim.Duration {
	if f <= 0 || f == 1 {
		return d
	}
	return sim.Duration(float64(d) / f)
}

// startAttempt begins one execution attempt of (task, item) on the slot:
// it draws the attempt's execution fault, restores from the last
// checkpoint if one exists (probing checkpoint-integrity faults), and
// starts the run.
func (h *Hypervisor) startAttempt(slot int, a *sched.App, task, item int) {
	rt := &h.slots[slot]
	rt.base, rt.doneNominal, rt.doneWall, rt.factor, rt.hung = 0, 0, 0, 1, false
	// The watchdog budget spans the whole attempt: periodic save pauses
	// consume it rather than resetting it, so a slowed item cannot dodge
	// the watchdog by checkpointing often.
	rt.wdLeft = 0
	if h.cfg.WatchdogFactor > 0 {
		est := stretchDur(a.Report.Task(task).Latency, h.scale)
		rt.wdLeft = sim.Duration(float64(est)*h.cfg.WatchdogFactor) + h.cfg.WatchdogGrace
	}
	// One execution-fault probe per attempt: a hang never completes, a
	// slowdown stretches every stretch.
	if inj := h.board.Injector(); inj != nil {
		out := inj.Exec(h.eng.Now(), a.Name, task, slot)
		if out.Hang {
			rt.hung = true
			h.rec.FaultsInjected++
		} else if out.Factor > 1 {
			rt.factor = out.Factor
			h.rec.FaultsInjected++
		}
	}
	if h.slow > 1 {
		// Board-wide degrade stretches every attempt started inside the
		// window, compounding any injected per-item slowdown.
		rt.factor *= h.slow
	}
	if h.scale != 1 {
		// Fabric heterogeneity compounds the same way, permanently.
		rt.factor *= h.scale
	}
	rec, ok := h.ckptGet(a.ID, task, item)
	if ok {
		probe := fpga.ProbeCheckpoint(h.board.Injector(), h.eng.Now(), a.Name, task, slot)
		if probe.Lost {
			// The snapshot is gone before a single byte streams back:
			// fall back to from-scratch re-execution immediately.
			h.ckptDelete(a.ID, task, item)
			h.rec.FaultsInjected++
			h.rec.CheckpointFaults++
			h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpointFault, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Progress: rec.progress})
		} else {
			rt.base = rec.progress
			rt.restoring = true
			start := h.eng.Now()
			if err := h.board.TransferState(slot, rec.bytes, func(error) {
				h.restoreDone(slot, a, task, item, rec, probe.Corrupt, start)
			}); err != nil {
				h.fail(err)
			}
			return
		}
	}
	h.beginRun(slot, a, task, item)
}

// restoreDone completes a checkpoint restore: the state streamed back
// through the CAP; either the item resumes from the snapshot or (corrupt
// snapshot) re-executes from scratch with the transfer time spent.
func (h *Hypervisor) restoreDone(slot int, a *sched.App, task, item int, rec ckptRecord, corrupt bool, start sim.Time) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if rt.app != a || rt.task != task || rt.curItem != item || !rt.restoring {
		return // slot was reclaimed mid-restore (permanent failure)
	}
	rt.restoring = false
	d := h.eng.Now().Sub(start)
	h.rec.CheckpointOverhead += d
	h.slotBusy[slot] += d
	if corrupt {
		h.ckptDelete(a.ID, task, item)
		h.rec.FaultsInjected++
		h.rec.CheckpointFaults++
		rt.base = 0
		h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpointFault, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: d, Progress: rec.progress})
	} else {
		h.rec.ResumedItems++
		h.rec.SavedWork += rec.progress
		h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindRestore, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: d, Progress: rec.progress})
	}
	if rt.preempt {
		// A preemption arrived while state streamed back: honour it now;
		// the snapshot (if intact) resumes on another slot.
		h.finishOnDemand(slot, a, task, item, 0)
		return
	}
	h.beginRun(slot, a, task, item)
}

// beginRun starts (or resumes) the compute stretch of the current
// attempt and arms its completion, watchdog, and periodic-save timers.
func (h *Hypervisor) beginRun(slot int, a *sched.App, task, item int) {
	rt := &h.slots[slot]
	nominal := a.Graph.Task(task).Latency
	remaining := nominal - rt.base - rt.doneNominal
	if remaining < 0 {
		remaining = 0 // float rounding across pause/resume cycles
	}
	lat := stretchDur(remaining, rt.factor)
	rt.itemStart = h.eng.Now()
	if rt.hung {
		rt.itemEv = 0
	} else {
		rt.itemEv = h.eng.AfterCancellable(lat, func() { h.itemDone(slot, a, task, item, lat) })
	}
	if h.cfg.WatchdogFactor > 0 && rt.wdLeft > 0 {
		rt.wdEv = h.eng.AfterCancellable(rt.wdLeft, func() { h.watchdogFire(slot, a, task, item) })
	}
	if p := h.cfg.Checkpoint.Period; p > 0 && h.ckptOn() && !rt.hung {
		rt.ckptEv = h.eng.AfterCancellable(p, func() { h.ckptSave(slot, a, task, item) })
	}
}

// ckptSave is the periodic checkpoint: if the item has passed a new
// preemption point since the last capture, pause the kernel, stream the
// state out through the CAP, and resume. Saves of hung items are
// pointless (no consistent progress) and are skipped.
func (h *Hypervisor) ckptSave(slot int, a *sched.App, task, item int) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if rt.app != a || rt.task != task || rt.curItem != item || rt.saving || rt.restoring || rt.hung {
		return // stale timer
	}
	nominal := a.Graph.Task(task).Latency
	elapsed := h.eng.Now().Sub(rt.itemStart)
	progressed := unstretchDur(elapsed, rt.factor)
	frac := float64(rt.base+rt.doneNominal+progressed) / float64(nominal)
	snap := sim.Duration(a.Graph.SnapFraction(task, frac, h.cfg.Checkpoint.DefaultPoints) * float64(nominal))
	rec, _ := h.ckptGet(a.ID, task, item)
	if snap <= rec.progress {
		// No new preemption point passed: nothing to capture; try again
		// next period.
		rt.ckptEv = h.eng.AfterCancellable(h.cfg.Checkpoint.Period, func() { h.ckptSave(slot, a, task, item) })
		return
	}
	h.eng.Cancel(rt.itemEv)
	h.eng.Cancel(rt.wdEv)
	rt.itemEv, rt.wdEv, rt.ckptEv = 0, 0, 0
	rt.doneWall += elapsed
	rt.doneNominal += progressed
	// The pause consumes watchdog budget (transfer time does not: the
	// kernel is not executing while its state streams out).
	rt.wdLeft -= elapsed
	if rt.wdLeft < 1 {
		rt.wdLeft = 1 // fire immediately after resume
	}
	rt.saving = true
	bytes := h.taskStateBytes(a, task)
	start := h.eng.Now()
	if err := h.board.TransferState(slot, bytes, func(error) {
		h.ckptSaveDone(slot, a, task, item, snap, bytes, start)
	}); err != nil {
		h.fail(err)
	}
}

// ckptSaveDone records the snapshot and resumes the paused kernel (or
// honours a preemption that arrived mid-save).
func (h *Hypervisor) ckptSaveDone(slot int, a *sched.App, task, item int, snap sim.Duration, bytes int64, start sim.Time) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if rt.app != a || rt.task != task || rt.curItem != item || !rt.saving {
		return // slot was reclaimed mid-save (permanent failure)
	}
	rt.saving = false
	d := h.eng.Now().Sub(start)
	h.ckptPut(a.ID, task, item, ckptRecord{progress: snap, bytes: bytes})
	h.rec.CheckpointSaves++
	h.rec.CheckpointOverhead += d
	h.slotBusy[slot] += d
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpointSave, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: d, Progress: snap})
	if rt.preempt {
		h.finishOnDemand(slot, a, task, item, d)
		return
	}
	h.beginRun(slot, a, task, item)
}

// startOnDemandCheckpoint honours a mid-item preemption request under
// the checkpoint subsystem: pause, capture state at the latest passed
// preemption point (if newer than the last snapshot), and release the
// slot. Work past the snapshot is wasted — it re-executes on resume.
func (h *Hypervisor) startOnDemandCheckpoint(slot int) {
	rt := &h.slots[slot]
	if rt.curItem == -1 || rt.saving || rt.restoring {
		return // an in-flight transfer completes first; its callback honours preempt
	}
	a, task, item := rt.app, rt.task, rt.curItem
	elapsed := h.eng.Now().Sub(rt.itemStart)
	var progressed sim.Duration
	if !rt.hung {
		progressed = unstretchDur(elapsed, rt.factor)
	}
	h.eng.Cancel(rt.itemEv)
	h.eng.Cancel(rt.wdEv)
	h.eng.Cancel(rt.ckptEv)
	rt.itemEv, rt.wdEv, rt.ckptEv = 0, 0, 0
	rt.doneWall += elapsed
	rt.doneNominal += progressed
	rt.saving = true
	nominal := a.Graph.Task(task).Latency
	frac := float64(rt.base+rt.doneNominal) / float64(nominal)
	snap := sim.Duration(a.Graph.SnapFraction(task, frac, h.cfg.Checkpoint.DefaultPoints) * float64(nominal))
	rec, _ := h.ckptGet(a.ID, task, item)
	if snap <= rec.progress {
		// No new point passed since the last capture (or none at all):
		// nothing to save; release immediately.
		h.finishOnDemand(slot, a, task, item, 0)
		return
	}
	bytes := h.taskStateBytes(a, task)
	start := h.eng.Now()
	if err := h.board.TransferState(slot, bytes, func(error) {
		if h.halted() {
			return
		}
		cur := &h.slots[slot]
		if cur.app != a || cur.task != task || cur.curItem != item || !cur.saving {
			return // slot was reclaimed mid-save (permanent failure)
		}
		d := h.eng.Now().Sub(start)
		h.ckptPut(a.ID, task, item, ckptRecord{progress: snap, bytes: bytes})
		h.rec.CheckpointSaves++
		h.rec.CheckpointOverhead += d
		h.slotBusy[slot] += d
		h.finishOnDemand(slot, a, task, item, d)
	}); err != nil {
		h.fail(err)
	}
}

// finishOnDemand completes a checkpoint preemption: commit the work the
// snapshot captured, waste the rest, abort the in-flight item (batch
// progress survives in the App), and free the slot.
func (h *Hypervisor) finishOnDemand(slot int, a *sched.App, task, item int, saveDur sim.Duration) {
	rt := &h.slots[slot]
	rt.saving = false
	var committed sim.Duration
	rec, has := h.ckptGet(a.ID, task, item)
	if has {
		committed = stretchDur(rec.progress-rt.base, rt.factor)
	}
	wall := rt.doneWall
	if committed > wall {
		committed = wall
	}
	h.acct[a.ID].Run += committed
	h.addService(a, committed)
	h.slotBusy[slot] += wall
	h.rec.WastedWork += wall - committed
	aborted, err := a.MarkCheckpointPreempted(task)
	if err != nil {
		h.fail(err)
		return
	}
	if aborted != item {
		h.fail(fmt.Errorf("hv: checkpoint of %s task %d aborted item %d, expected %d", a.Name, task, aborted, item))
		return
	}
	if err := h.board.Release(slot); err != nil {
		h.fail(err)
		return
	}
	h.acct[a.ID].Preemptions++
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpoint, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: saveDur, Progress: rec.progress})
	h.slots[slot] = slotRuntime{curItem: -1}
	h.wake(sched.ReasonSlotFree)
}

// abortAccounting books a killed attempt under the checkpoint
// subsystem: wall compute up to the last snapshot is committed run
// time, everything since is wasted, and checkpoint transfer time is
// never double-counted (it lives in CheckpointOverhead).
func (h *Hypervisor) abortAccounting(slot int, rt *slotRuntime) {
	a := rt.app
	wall := rt.doneWall
	if !rt.saving && !rt.restoring {
		wall += h.eng.Now().Sub(rt.itemStart)
	}
	var committed sim.Duration
	if rec, ok := h.ckptGet(a.ID, rt.task, rt.curItem); ok {
		committed = stretchDur(rec.progress-rt.base, rt.factor)
	}
	if committed > wall {
		committed = wall
	}
	h.acct[a.ID].Run += committed
	h.addService(a, committed)
	h.slotBusy[slot] += wall
	h.rec.WastedWork += wall - committed
}

// doPreempt saves batch state (already tracked in the App) and frees the
// slot. Only legal at a batch boundary.
func (h *Hypervisor) doPreempt(slot int) {
	rt := &h.slots[slot]
	a, task := rt.app, rt.task
	if err := a.MarkPreempted(task); err != nil {
		h.fail(err)
		return
	}
	if err := h.board.Release(slot); err != nil {
		h.fail(err)
		return
	}
	h.acct[a.ID].Preemptions++
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindPreempt, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
	h.slots[slot] = slotRuntime{curItem: -1}
	h.wake(sched.ReasonSlotFree)
}

// tryStart pulls the next ready batch item into the slot's task, or
// honours a pending preemption at the boundary.
func (h *Hypervisor) tryStart(slot int) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if rt.app == nil || !rt.active || rt.curItem != -1 {
		return
	}
	if rt.preempt {
		h.doPreempt(slot)
		return
	}
	a, task := rt.app, rt.task
	item := a.NextReadyItem(task, h.policy.Pipelining())
	if item < 0 {
		return // waiting at a batch boundary
	}
	// Inter-slot hand-off: the item's input data may still be in flight
	// from producer slots; retry once it lands.
	if avail := h.dataReadyAt(a, task, slot, item); avail > h.eng.Now() {
		h.eng.At(avail, h.kickFns[slot])
		return
	}
	if err := a.MarkItemStarted(task, item); err != nil {
		h.fail(err)
		return
	}
	rt.curItem = item
	res := h.acct[a.ID]
	if res.FirstLaunch < 0 {
		res.FirstLaunch = h.eng.Now()
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindItemStart, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item})
	h.startAttempt(slot, a, task, item)
}

func (h *Hypervisor) itemDone(slot int, a *sched.App, task, item int, lat sim.Duration) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if rt.app != a || rt.task != task || rt.curItem != item {
		h.fail(fmt.Errorf("hv: item completion for %s task %d item %d does not match slot %d state", a.Name, task, item, slot))
		return
	}
	h.eng.Cancel(rt.wdEv)
	h.eng.Cancel(rt.ckptEv)
	rt.wdEv, rt.ckptEv = 0, 0
	rt.curItem = -1
	taskDone, err := a.MarkItemDone(task, item)
	if err != nil {
		h.fail(err)
		return
	}
	h.recordProduction(a, task, item, slot)
	// The attempt's earlier stretches (between periodic saves) are
	// booked now, with the final stretch; save pauses were booked at
	// each save. The snapshot is obsolete once the item completes.
	run := lat + rt.doneWall
	h.ckptDelete(a.ID, task, item)
	rt.base, rt.doneNominal, rt.doneWall = 0, 0, 0
	h.acct[a.ID].Run += run
	h.addService(a, run)
	h.slotBusy[slot] += run
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindItemDone, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item})
	if taskDone {
		if err := h.finishTask(slot, a, task); err != nil {
			h.fail(err)
			return
		}
		if a.Done() {
			if err := h.retire(a); err != nil {
				h.fail(err)
				return
			}
			h.kickApps()
			h.poke(sched.ReasonAppDone)
			return
		}
		h.kickApp(a)
		h.poke(sched.ReasonSlotFree)
		return
	}
	// Wake downstream pipelined instances, then this slot.
	h.kickApp(a)
}

// finishTask relinquishes buffers and frees the slot.
func (h *Hypervisor) finishTask(slot int, a *sched.App, task int) error {
	// Drop one reference on each predecessor's output: this consumer is done.
	for _, p := range a.Graph.Pred(task) {
		if id, ok := h.bufOut[a.ID][p]; ok {
			if err := h.mem.Release(id); err != nil {
				return err
			}
		}
	}
	// Sink tasks own their single output reference.
	if len(a.Graph.Succ(task)) == 0 {
		if id, ok := h.bufOut[a.ID][task]; ok {
			if err := h.mem.Release(id); err != nil {
				return err
			}
		}
	}
	if err := h.board.Release(slot); err != nil {
		return err
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindTaskDone, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
	h.slots[slot] = slotRuntime{curItem: -1}
	return nil
}

// recordProduction notes where a (task, item) output was produced so
// consumer-side hand-offs can be priced. Only needed for explicit
// interconnect models.
func (h *Hypervisor) recordProduction(a *sched.App, task, item, slot int) {
	if h.ic.Kind() == interconnect.Folded {
		return
	}
	m, ok := h.prodAt[a.ID]
	if !ok {
		m = map[[2]int]prodInfo{}
		h.prodAt[a.ID] = m
	}
	m[[2]int{task, item}] = prodInfo{at: h.eng.Now(), slot: slot}
}

// dataReadyAt reports when every predecessor's output for the item has
// arrived at the consumer slot, pricing each hand-off exactly once.
func (h *Hypervisor) dataReadyAt(a *sched.App, task, slot, item int) sim.Time {
	if h.ic.Kind() == interconnect.Folded || len(a.Graph.Pred(task)) == 0 {
		return h.eng.Now()
	}
	memo, ok := h.handoff[a.ID]
	if !ok {
		memo = map[[3]int]sim.Time{}
		h.handoff[a.ID] = memo
	}
	var ready sim.Time
	for _, p := range a.Graph.Pred(task) {
		key := [3]int{p, task, item}
		at, ok := memo[key]
		if !ok {
			prod, have := h.prodAt[a.ID][[2]int{p, item}]
			if !have {
				// Bulk mode: readiness was granted by whole-batch
				// completion; price the hand-off from the pred's last
				// known production of this item index. Fall back to
				// "already resident" if untracked.
				at = h.eng.Now()
			} else {
				at = h.ic.TransferDone(prod.at, prod.slot, slot)
			}
			memo[key] = at
		}
		if at > ready {
			ready = at
		}
	}
	return ready
}

// kickApp retries item starts on every slot hosting the application —
// item completions upstream may have unblocked pipelined consumers.
func (h *Hypervisor) kickApp(a *sched.App) {
	for s := range h.slots {
		if h.slots[s].app == a {
			h.tryStart(s)
		}
	}
}

// kickApps retries item starts everywhere (used after retirement).
func (h *Hypervisor) kickApps() {
	for s := range h.slots {
		h.tryStart(s)
	}
}

func (h *Hypervisor) retire(a *sched.App) error {
	if err := a.Retire(); err != nil {
		return err
	}
	for i, p := range h.pending {
		if p == a {
			h.pending = append(h.pending[:i], h.pending[i+1:]...)
			break
		}
	}
	res := h.acct[a.ID]
	res.Retire = h.eng.Now()
	res.Response = res.Retire.Sub(res.Arrival)
	res.Wait = res.FirstLaunch.Sub(res.Arrival)
	h.results = append(h.results, *res)
	// Any buffers still owned by the app would be leaks; reclaim and
	// surface them.
	owner := h.owner(a)
	if n := h.mem.ReleaseOwner(owner); n != 0 {
		return fmt.Errorf("hv: %s retired with %d leaked buffers", owner, n)
	}
	delete(h.owners, a.ID)
	delete(h.bufOut, a.ID)
	delete(h.handoff, a.ID)
	delete(h.prodAt, a.ID)
	delete(h.ckpt, a.ID)
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindRetire, App: a.Name, AppID: a.ID, Task: -1, Slot: -1, Item: -1})
	if h.cfg.OnRetire != nil {
		h.cfg.OnRetire(a.ID)
	}
	return nil
}

// Run drives the simulation until every submitted application retires.
// It fails if a mechanical error occurred or applications are still
// pending at the horizon.
func (h *Hypervisor) Run() ([]Result, error) {
	h.eng.RunUntil(h.cfg.Horizon)
	return h.Collect()
}

// Collect returns results after the engine has been driven externally
// (e.g. by a cluster coordinating several hypervisors on one engine).
// It fails if a mechanical error occurred or applications remain.
func (h *Hypervisor) Collect() ([]Result, error) {
	if h.err != nil {
		return nil, h.err
	}
	if len(h.results) != len(h.apps) {
		var stuck []string
		for _, a := range h.apps {
			if !a.Retired() {
				stuck = append(stuck, a.String())
			}
		}
		return nil, fmt.Errorf("hv: %d/%d applications unfinished at horizon %v under %s: %v",
			len(stuck), len(h.apps), h.cfg.Horizon, h.policy.Name(), stuck)
	}
	slices.SortFunc(h.results, func(x, y Result) int {
		if x.AppID < y.AppID {
			return -1
		}
		if x.AppID > y.AppID {
			return 1
		}
		return 0
	})
	return h.results, nil
}

// Utilization reports the fraction of slot-time actually occupied
// (reconfiguration or compute) over the window [0, until]. Low
// utilization under the no-sharing baseline is the resource-efficiency
// argument that motivates fine-grained sharing in the first place.
func (h *Hypervisor) Utilization(until sim.Time) float64 {
	if until <= 0 || len(h.slotBusy) == 0 {
		return 0
	}
	var busy sim.Duration
	for _, b := range h.slotBusy {
		busy += b
	}
	return float64(busy) / (float64(until) * float64(len(h.slotBusy)))
}

// OutstandingEstimate sums the HLS-estimated remaining work of all
// pending applications — the load signal a multi-FPGA dispatcher uses.
// Applications submitted for the current instant whose arrival event has
// not yet fired are included: without them, simultaneous dispatch
// decisions would not see each other and would all pick the same board.
func (h *Hypervisor) OutstandingEstimate() sim.Duration {
	var total sim.Duration
	for _, a := range h.pending {
		total += a.RemainingEstimate()
	}
	for _, a := range h.transit {
		total += a.RemainingEstimate()
	}
	return total
}

// PendingCount reports applications submitted and not yet retired,
// including submissions whose arrival event has not yet fired (see
// OutstandingEstimate for why in-transit work must count).
func (h *Hypervisor) PendingCount() int { return len(h.pending) + len(h.transit) }

// SingleSlotLatency is the latency of the application when given one slot
// and no contention: every task reconfigured once and run serially over
// the batch. The deadline analysis scales this (Section 5.4).
func (h *Hypervisor) SingleSlotLatency(g *taskgraph.Graph, batch int) sim.Duration {
	return SingleSlotLatencyFor(h.cfg.Board, g, batch)
}

// SingleSlotLatencyFor computes the single-slot latency for a board
// configuration without instantiating a hypervisor. The compute term
// scales with the board's fabric latency factor; the reconfiguration
// term follows its configuration bandwidths.
func SingleSlotLatencyFor(board fpga.Config, g *taskgraph.Graph, batch int) sim.Duration {
	bytes := float64(bitstream.SlotImageBytes + bitstream.HeaderBytes)
	r := sim.Seconds(bytes/board.SDBytesPerSec) + sim.Seconds(bytes/board.CAPBytesPerSec)
	return sim.Duration(g.NumTasks())*r + stretchDur(sim.Duration(batch)*g.TotalWork(), board.LatencyScale)
}
