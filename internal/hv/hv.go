// Package hv implements the Nimblock hypervisor.
//
// The hypervisor is the system manager described in Section 2.2 of the
// paper: it accepts application submissions, drives reconfiguration
// through the CAP, allocates and relinquishes data buffers, launches
// tasks, honours batch-preemption requests at batch boundaries, and
// retires completed applications. The
// scheduling *policy* is pluggable (sched.Scheduler); the hypervisor
// invokes it at scheduling intervals and on arrival/completion/
// reconfiguration events and executes whatever reconfigurations and
// preemptions it requests.
//
// The package is split by concern: this file holds construction, event
// dispatch, and the sched.World surface; reconfig.go reconfiguration,
// buffers, and interconnect hand-offs; attempt.go item execution with
// the watchdog, slot death, and quarantine; checkpoint.go state capture
// and restore; accounting.go results, recovery, energy, and tenant
// service; failover.go the board-level failure domain.
package hv

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"nimblock/internal/fpga"
	"nimblock/internal/hls"
	"nimblock/internal/interconnect"
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
	// MemCapacity is the shared DDR available for data buffers, in
	// bytes; it must be positive. A task's output buffer is allocated
	// when the task is first configured, and the configuration fails the
	// run if the buffer would take live buffers past the capacity.
	MemCapacity int64
	// BufferBytes is the size of one task's output buffer; every buffer
	// has this size, so the board holds at most MemCapacity/BufferBytes
	// buffers at once.
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

// Instance names a board the way the cluster, serverless, and fleet
// front-ends hold it.
type Instance = *Hypervisor

// slotRuntime is the hypervisor's view of one slot.
type slotRuntime struct {
	app       *sched.App
	rec       *appRecord // app's record, so the item path never looks it up by ID
	task      int
	active    bool // reconfiguration finished, logic live
	curItem   int  // item in flight, -1 if waiting at a batch boundary
	preempt   bool // preemption requested
	saving    bool // checkpoint capture in progress (the attempt is paused)
	restoring bool // checkpoint restore streaming back through the CAP
	hung      bool // injected hang: no completion event is coming
	itemEv    sim.EventID
	wdEv      sim.EventID
	ckptEv    sim.EventID  // periodic checkpoint timer
	itemStart sim.Time     // start of the current run stretch
	stretch   sim.Duration // wall length of the current run stretch, booked by itemDone

	// The in-flight item's latest snapshot, owned by the slot while the
	// item runs (see checkpoint.go), and the fresh bound of the running
	// stretch: no periodic save before freshAt can pass a new preemption
	// point (freshBound).
	last    ckptRecord
	hasLast bool
	freshAt sim.Time

	// The slot's in-flight checkpoint transfer, read back by its
	// completion: the snapshot being saved or restored with the
	// transfer's start and kind.
	snap      ckptRecord
	xferStart sim.Time
	periodic  bool // the capture in flight is a periodic save
	corrupt   bool // the restore in flight will fail validation

	// Per-attempt bookkeeping. An attempt is one
	// MarkItemStarted..{done,killed,preempted} episode; periodic saves
	// pause and resume it without ending it. Without checkpointing, base
	// stays zero.
	base        sim.Duration // nominal progress restored at attempt start
	doneNominal sim.Duration // nominal progress of earlier stretches this attempt
	doneWall    sim.Duration // wall compute of earlier stretches this attempt
	factor      float64      // injected slowdown of this attempt (>= 1)
	wdLeft      sim.Duration // watchdog budget left for this attempt
}

// appRecord is everything the hypervisor keeps for one unretired
// submission, from SubmitID until forget drops it at retirement,
// evacuation, or abort. The maps are created on first use: most
// submissions never need a hand-off memo or a snapshot.
type appRecord struct {
	app *sched.App
	res Result
	// refs is the app's buffer ledger, indexed by task: the consumers
	// still to finish with the task's output buffer. 0 means not
	// allocated yet, bufReleased that the buffer was freed (see
	// allocOutputBuffer). Made on the first allocation.
	refs    []int32
	handoff map[[3]int]sim.Time   // (pred, succ, item) -> data-ready time
	prodAt  map[[2]int]prodInfo   // (task, item) -> production record
	ckpt    map[[2]int]ckptRecord // (task, item) -> last snapshot of an item not in flight
}

// Hypervisor executes submissions under one scheduling policy.
type Hypervisor struct {
	eng    *sim.Engine
	cfg    Config
	board  *fpga.Board
	policy sched.Scheduler
	log    *trace.Log
	obs    obs.Sink

	apps     []*sched.App
	pending  []*sched.App
	transit  []*sched.App         // submitted, arrival event not yet fired
	records  map[int64]*appRecord // unretired submissions by ID
	slots    []slotRuntime
	ic       *interconnect.Model
	slotBusy []sim.Duration // per-slot occupied time (reconfig + compute)
	results  []Result
	nextID   int64

	// Board-wide totals of the records' buffer ledgers: buffers
	// allocated and not yet released, and the bytes they hold.
	bufLive int
	bufUsed int64

	// reports memoizes each submitted graph's HLS report, computed on
	// its first submission to this board.
	reports map[*taskgraph.Graph]*hls.Report

	// rec accumulates hypervisor-side recovery counters (exec faults,
	// watchdog kills, quarantines, wasted work, the slot timeline);
	// Recovery() merges in the board's reconfiguration-side numbers.
	rec RecoveryStats

	tickPending bool
	err         error

	// Tick skipping. changes counts World-visible mutations: trace bumps
	// it with every emitted event, and the few mutations that emit none
	// bump it directly. A policy that declares a wake (sched.Waker) is
	// not called at a tick when changes still equals quiet, its value
	// when the last Schedule call returned, and the tick is before
	// wakeAt, the wake the policy declared then: that call is provably a
	// no-op. The tick itself still fires and heartbeats.
	waker   sched.Waker
	changes uint64
	quiet   uint64
	wakeAt  sim.Time

	// strictSaves, when non-nil, makes every periodic save run the
	// exact freshness check: a save before the stretch's fresh bound is
	// counted there and fails the run if it finds a new preemption
	// point. Only tests set it, as the reference the save skipping is
	// compared against.
	strictSaves *int

	// Board-level failure-domain state (see failover.go). progress is
	// the monotonic heartbeat counter liveness polls compare; frozen
	// stops all event processing (board-hang); dead additionally means
	// the board was evacuated and will never serve again; slow is a
	// board-wide degrade multiplier applied at item start.
	progress uint64
	frozen   bool
	dead     bool
	slow     float64

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
	// wake, timer, or CAP completion must not allocate a fresh closure
	// each time (these fire millions of times per run).
	tickFn  func()
	wakeFns [5]func()  // indexed by sched.Reason
	fns     []*slotFns // per slot, bound on first use by fnsFor
}

// slotFns are one slot's engine and CAP callbacks. Each reads the
// attempt or transfer it completes from the slot's slotRuntime, so one
// set serves every occupant: arming a timer or starting a CAP stream
// allocates nothing. They are safe to share across occupants because
// resetSlot cancels the slot's timers (a handle cancels exactly its own
// event), and a CAP completion that outlives its occupant finds the slot
// not saving, not restoring, or the board halted (see captureDone).
type slotFns struct {
	kick, itemDone, watchdog, save   func()
	captured, restored, reconfigured func(error)
}

// fnsFor returns the slot's callbacks, binding them on the slot's first
// use: boards whose slots are never configured never pay for them.
func (h *Hypervisor) fnsFor(slot int) *slotFns {
	if f := h.fns[slot]; f != nil {
		return f
	}
	f := &slotFns{
		kick:         func() { h.tryStart(slot) },
		itemDone:     func() { h.itemDone(slot) },
		watchdog:     func() { h.watchdogFire(slot) },
		save:         func() { h.periodicSave(slot) },
		captured:     func(error) { h.captureDone(slot) },
		restored:     func(error) { h.restoreDone(slot) },
		reconfigured: func(err error) { h.reconfigDone(slot, err) },
	}
	h.fns[slot] = f
	return f
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
	if cfg.MemCapacity <= 0 {
		return nil, fmt.Errorf("mem: capacity must be positive, got %d", cfg.MemCapacity)
	}
	ic, err := interconnect.New(cfg.Interconnect)
	if err != nil {
		return nil, err
	}
	waker, _ := policy.(sched.Waker)
	h := &Hypervisor{
		eng:       eng,
		policy:    policy,
		waker:     waker,
		records:   map[int64]*appRecord{},
		reports:   map[*taskgraph.Graph]*hls.Report{},
		ic:        ic,
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
		if h.waker == nil || h.changes != h.quiet || h.eng.Now() >= h.wakeAt {
			h.poke(sched.ReasonTick)
		}
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
	h.fns = make([]*slotFns, board.NumSlots())
	if cfg.EnableTrace {
		h.log = trace.New()
	}
	h.obs = cfg.Observer
	for i := range h.slots {
		h.resetSlot(i)
	}
	h.rec.Timeline = []SlotSample{{At: eng.Now(), Usable: board.UsableSlots()}}
	// Plan-known permanent failures are driven from here rather than the
	// board so a failure can kill a slot even while a task runs in it. A
	// board rebuilt mid-run (after a board death) starts with every
	// failure dated at or before now already due, so those fire at once.
	if inj := board.Injector(); inj != nil {
		for _, f := range inj.PermanentFailures() {
			if f.Slot < 0 || f.Slot >= board.NumSlots() {
				return nil, fmt.Errorf("hv: fault plan kills slot %d, board has %d slots", f.Slot, board.NumSlots())
			}
			slot := f.Slot
			eng.At(max(f.At, eng.Now()), func() { h.forceOffline(slot) })
		}
	}
	return h, nil
}

// Policy returns the scheduling policy in use.
func (h *Hypervisor) Policy() sched.Scheduler { return h.policy }

// Board exposes the simulated FPGA (for tests and reports).
func (h *Hypervisor) Board() *fpga.Board { return h.board }

// Trace returns the execution trace, or nil when tracing is disabled.
func (h *Hypervisor) Trace() *trace.Log { return h.log }

// Interconnect exposes the inter-slot data-movement model.
func (h *Hypervisor) Interconnect() *interconnect.Model { return h.ic }

// Err reports the first mechanical error encountered (policy contract
// violations surface here and abort the run).
func (h *Hypervisor) Err() error { return h.err }

// Submit schedules an application arrival: the application joins the
// pending queue at the arrival time. Any of its tasks can then be
// configured into any slot at the board's one reconfiguration cost,
// fpga.Config.ReconfigTime.
func (h *Hypervisor) Submit(g *taskgraph.Graph, batch, priority int, arrival sim.Time) error {
	_, err := h.SubmitID(g, batch, priority, arrival)
	return err
}

// SubmitTenant is SubmitID with a tenant attribution: fabric compute
// time delivered to the submission accrues to the tenant's service
// account (TenantService), weighted by the tenant's share for fairness
// arithmetic. Weight 0 means 1; see CheckWeight.
func (h *Hypervisor) SubmitTenant(g *taskgraph.Graph, batch, priority int, arrival sim.Time, tenant string, weight float64) (int64, error) {
	if err := CheckWeight(weight); err != nil {
		return 0, err
	}
	id, err := h.SubmitID(g, batch, priority, arrival)
	if err != nil {
		return 0, err
	}
	a := h.apps[len(h.apps)-1]
	a.Tenant, a.Weight = tenant, weight
	return id, nil
}

// CheckWeight rejects a tenant weight that is negative, NaN or
// infinite. Front-ends call it when a weight is submitted or registered,
// so a bad weight fails there rather than at dispatch.
func CheckWeight(weight float64) error {
	if !(weight >= 0 && weight <= math.MaxFloat64) {
		return fmt.Errorf("hv: tenant weight %v is negative or not finite", weight)
	}
	return nil
}

// SubmitID is Submit returning the board-local application ID assigned
// to the submission, which OnRetire later reports back. Dispatchers that
// must correlate completions with their own records use this form.
func (h *Hypervisor) SubmitID(g *taskgraph.Graph, batch, priority int, arrival sim.Time) (int64, error) {
	report := h.analyze(g)
	h.nextID++
	app, err := sched.NewApp(h.nextID, g, report, batch, priority, arrival)
	if err != nil {
		return 0, err
	}
	h.apps = append(h.apps, app)
	h.transit = append(h.transit, app)
	h.records[app.ID] = &appRecord{app: app, res: Result{
		AppID:       app.ID,
		App:         app.Name,
		Batch:       app.Batch,
		Priority:    app.Priority,
		Arrival:     app.Arrival,
		FirstLaunch: -1,
	}}
	h.eng.At(arrival, func() { h.arrive(app) })
	return app.ID, nil
}

// analyze returns the graph's HLS report, computing it on the graph's
// first submission to this board. The report is a pure function of the
// graph, so later submissions reuse it.
func (h *Hypervisor) analyze(g *taskgraph.Graph) *hls.Report {
	if r, ok := h.reports[g]; ok {
		return r
	}
	r := hls.Analyze(g)
	h.reports[g] = r
	return r
}

func (h *Hypervisor) arrive(app *sched.App) {
	if h.halted() || app.Retired() {
		// A dead or frozen board processes no arrivals (evacuation
		// re-homes in-transit work); an aborted hedge copy never lands.
		return
	}
	h.transit = without(h.transit, app)
	h.pending = append(h.pending, app)
	slices.SortStableFunc(h.pending, func(x, y *sched.App) int {
		return cmp.Or(cmp.Compare(x.Arrival, y.Arrival), cmp.Compare(x.ID, y.ID))
	})
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindArrival, App: app.Name, AppID: app.ID, Task: -1, Slot: -1, Item: -1})
	h.ensureTick()
	h.poke(sched.ReasonArrival)
}

// without removes app from list, keeping the order of the rest.
func without(list []*sched.App, app *sched.App) []*sched.App {
	if i := slices.Index(list, app); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// forget drops everything the hypervisor keeps for an application that
// is leaving the board — retired, evacuated, or aborted: its buffers and
// its record. It reports how many buffers were still live.
func (h *Hypervisor) forget(a *sched.App) int {
	n := 0
	for _, c := range h.records[a.ID].refs {
		if c > 0 {
			n++
		}
	}
	h.bufLive -= n
	h.bufUsed -= int64(n) * h.cfg.BufferBytes
	delete(h.records, a.ID)
	return n
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

// poke invokes the policy unless the run has already failed, and
// records the wake it declares for the tick-skipping rule.
func (h *Hypervisor) poke(why sched.Reason) {
	if h.err != nil || h.halted() {
		return
	}
	h.policy.Schedule(h, why)
	if h.waker != nil {
		h.quiet, h.wakeAt = h.changes, h.waker.NextWake(h)
	}
}

// wake defers a poke to the next event at the same virtual time; used
// when the trigger occurs inside a policy callback (re-entrancy guard).
func (h *Hypervisor) wake(why sched.Reason) { h.eng.After(0, h.wakeFns[why]) }

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
// on the simulator hot path (a test in this package enforces it). It is
// small enough to inline, so with tracing off the event is never copied.
func (h *Hypervisor) trace(e trace.Event) {
	// Every emitted event is one heartbeat: a frozen board emits nothing
	// (its callbacks are guarded), so liveness polls see the counter
	// stall and declare the board dead. It is also one World-visible
	// change for the tick-skipping rule.
	h.progress++
	h.changes++
	if h.log != nil || h.obs != nil {
		h.emit(e)
	}
}

// emit hands a traced event to the log and the observer.
func (h *Hypervisor) emit(e trace.Event) {
	h.log.Add(e)
	if h.obs != nil {
		h.obs.Observe(e)
	}
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

// Run drives the simulation until every submitted application retires.
// It fails if a mechanical error occurred or applications are still
// pending at the horizon.
func (h *Hypervisor) Run() ([]Result, error) {
	h.eng.RunUntil(h.cfg.Horizon)
	return h.Collect()
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
	return sim.Duration(g.NumTasks())*board.ReconfigTime() + stretchDur(sim.Duration(batch)*g.TotalWork(), board.LatencyScale)
}
