// Package sched defines the contract between the Nimblock hypervisor and
// its scheduling algorithms, plus the application runtime state they share.
//
// The hypervisor owns mechanics — reconfiguration through the CAP, task
// launch, buffer management, batch-boundary preemption — and exposes them
// through the World interface. A Scheduler is pure policy: at each
// scheduling opportunity it inspects the world and issues reconfiguration
// or preemption requests. The policies are the no-sharing baseline,
// FCFS, task-based PREMA and Coyote-style round-robin (packages under
// sched), the Nimblock algorithm and NimblockEnergy (package core), and
// NimblockCheckpoint (package ckpt, on top of core). The PREMA token
// accrual that PREMA, Nimblock and NimblockEnergy share is here: the
// closed-form functions AccrueTokens and TokenWake, and the
// CandidatePool each of those policies keeps, which derives the
// candidates again only when the pending list changes or a balance
// crosses a priority level.
package sched

import (
	"fmt"

	"nimblock/internal/hls"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// Reason says why the scheduler is being invoked.
type Reason int

const (
	// ReasonTick is the periodic scheduling interval (400 ms on the
	// evaluation system).
	ReasonTick Reason = iota
	// ReasonArrival fires when a new application enters the pending queue.
	ReasonArrival
	// ReasonSlotFree fires when a task completes or a preemption is
	// honoured, freeing a slot.
	ReasonSlotFree
	// ReasonAppDone fires when an application retires.
	ReasonAppDone
	// ReasonReconfigDone fires when the CAP finishes programming a slot,
	// i.e. the next reconfiguration may be issued.
	ReasonReconfigDone
)

// String names the reason for traces.
func (r Reason) String() string {
	switch r {
	case ReasonTick:
		return "tick"
	case ReasonArrival:
		return "arrival"
	case ReasonSlotFree:
		return "slot-free"
	case ReasonAppDone:
		return "app-done"
	case ReasonReconfigDone:
		return "reconfig-done"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Scheduler is one scheduling policy.
type Scheduler interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Pipelining reports whether the policy allows tasks of one
	// application to pipeline across batch items. Only Nimblock (and its
	// ablations) enable this; for every other policy a task may start
	// items only after its predecessors finished the whole batch.
	Pipelining() bool
	// Schedule inspects the world and issues actions. It is called at
	// scheduling intervals, on arrivals, completions, and when the CAP
	// finishes a reconfiguration.
	Schedule(w World, why Reason)
}

// Waker is implemented by policies whose decisions change on their own
// only at instants they can name in advance. NextWake, called right
// after Schedule returns, reports the earliest instant at which calling
// Schedule again could act differently, or change the candidate pool,
// if the world does not change before then; sim.Never means only a
// world change can. The hypervisor skips its periodic tick while the
// world is unchanged since the last call and the wake is still ahead.
// Policies that do not implement Waker are called at every tick.
type Waker interface {
	NextWake(w World) sim.Time
}

// World is the hypervisor surface visible to schedulers.
type World interface {
	// Now is the current virtual time.
	Now() sim.Time
	// NumSlots is the number of reconfigurable slots on the board. Slots
	// are always addressed by index in [0, NumSlots), even when some are
	// offline.
	NumSlots() int
	// UsableSlots counts slots that are not offline. Policies size their
	// allocations against this so they degrade gracefully when faults
	// quarantine part of the board.
	UsableSlots() int
	// SlotUsable reports whether the slot is online (it may still be
	// occupied; see FreeSlots for availability).
	SlotUsable(slot int) bool
	// FreeSlots lists usable slots with no logic configured or in flight.
	// The returned slice is implementation-owned scratch, valid only until
	// the next FreeSlots call on the same world; callers must not retain
	// or mutate it.
	FreeSlots() []int
	// CAPBusy reports whether a reconfiguration is streaming right now.
	CAPBusy() bool
	// Apps lists applications that have arrived and not yet retired, in
	// arrival order. Slices and Apps must be treated as read-only except
	// for the scheduler-owned fields (Tokens, SlotsAllocated, Goal, Plan).
	Apps() []*App
	// SlotOccupant reports the application and task configured (or being
	// configured) in a slot; ok is false for free slots.
	SlotOccupant(slot int) (app *App, task int, ok bool)
	// SlotWaiting reports whether the slot's task is loaded and idle at a
	// batch boundary (finished an item, next not started).
	SlotWaiting(slot int) bool
	// PreemptRequested reports whether a preemption is pending on the slot.
	PreemptRequested(slot int) bool
	// Reconfigure requests that the task be configured into the slot.
	// The slot must be free and the task configurable for this policy.
	Reconfigure(slot int, a *App, task int) error
	// RequestPreempt asks for batch-preemption of the slot's task. The
	// hypervisor honours it at the next batch boundary (immediately if
	// the task is already waiting).
	RequestPreempt(slot int) error
	// TenantService reports the fabric compute time delivered so far to
	// the named tenant (zero for unknown tenants and for apps submitted
	// without one). Fairness-aware policies order candidates by weighted
	// service deficit against it.
	TenantService(tenant string) sim.Duration
}

// TaskState tracks one task of a running application.
type TaskState int

const (
	// TaskIdle means the task is not configured anywhere (never
	// scheduled, or preempted with partial progress).
	TaskIdle TaskState = iota
	// TaskConfiguring means a reconfiguration for this task is queued or
	// streaming on the CAP.
	TaskConfiguring
	// TaskActive means the task's logic is loaded and processing (or
	// waiting for) batch items.
	TaskActive
	// TaskDone means every batch item has been processed by this task.
	TaskDone
)

// String names the state for traces.
func (s TaskState) String() string {
	switch s {
	case TaskIdle:
		return "idle"
	case TaskConfiguring:
		return "configuring"
	case TaskActive:
		return "active"
	case TaskDone:
		return "done"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// App is the runtime state of one submitted application. Mechanical
// fields are maintained by the hypervisor through the Mark* methods;
// Tokens, SlotsAllocated, Goal, and Plan belong to the scheduling policy.
type App struct {
	ID       int64
	Name     string
	Graph    *taskgraph.Graph
	Report   *hls.Report
	Batch    int
	Priority int
	Arrival  sim.Time

	// Tenant names the submitting tenant for multi-tenant fairness
	// accounting; empty for single-tenant submissions. Weight is the
	// tenant's service share (0 means 1). Both are set at submission and
	// read-only afterwards.
	Tenant string
	Weight float64

	// Tokens is the PREMA-style token balance (policy-owned).
	Tokens float64
	// CandidateSince is when the app first joined the candidate pool.
	CandidateSince sim.Time
	// SlotsAllocated is the policy's current slot allocation (Nimblock).
	SlotsAllocated int
	// Goal is the saturation-point goal number (Nimblock).
	Goal int
	// Plan memoizes the app's saturation plan for the board size it was
	// last planned at (Nimblock).
	Plan Plan
	// SLOEstimate memoizes the app's single-slot latency estimate, the
	// base of its deadline (NimblockCheckpoint); zero until first
	// computed. It depends only on the app and the board it runs on.
	SLOEstimate sim.Duration

	state     []TaskState
	slot      []int
	doneCnt   []int // items finish in order: task t's done items are [0, doneCnt[t])
	inflight  []int
	cfg       []int // ConfigurableTasks' answer, valid while cfgValid
	tasksFin  int
	slotsUsed int          // tasks configuring or active
	remaining sim.Duration // RemainingEstimate, lowered as items finish

	// Token accrual state: the instant the app was first seen, and the
	// last crossing TokenWake derived for it.
	tokenSince sim.Time
	crossAt    sim.Time

	// Candidate reports whether the app is in the candidate pool.
	Candidate bool

	// The small fields share one word with Candidate, which keeps App in
	// the 320-byte allocation class: apps are created once per
	// submission and live until the board is collected.
	retired   bool
	tokenSeen bool // the pool has given the app its initial tokens
	cfgValid  bool // no task entered or left TaskIdle since cfg was built
	crossKey  int8 // 1 + the PriorityLevels index crossAt is for; 0 before the first
}

// NewApp builds runtime state for a submission.
func NewApp(id int64, g *taskgraph.Graph, report *hls.Report, batch, priority int, arrival sim.Time) (*App, error) {
	if g == nil {
		return nil, fmt.Errorf("sched: app %d has no task-graph", id)
	}
	if batch < 1 {
		return nil, fmt.Errorf("sched: app %d (%s) batch %d < 1", id, g.Name(), batch)
	}
	if priority < 1 {
		return nil, fmt.Errorf("sched: app %d (%s) priority %d < 1", id, g.Name(), priority)
	}
	n := g.NumTasks()
	// One backing array serves the three per-task int slices. Apps are
	// created per submission on the simulation hot path, so allocation
	// count matters.
	ints := make([]int, 3*n)
	a := &App{
		ID:       id,
		Name:     g.Name(),
		Graph:    g,
		Report:   report,
		Batch:    batch,
		Priority: priority,
		Arrival:  arrival,
		state:    make([]TaskState, n),
		slot:     ints[0:n:n],
		doneCnt:  ints[n : 2*n : 2*n],
		inflight: ints[2*n : 3*n : 3*n],
	}
	for i := 0; i < n; i++ {
		a.slot[i] = -1
		a.inflight[i] = -1
		a.remaining += report.Task(i).Latency * sim.Duration(batch)
	}
	return a, nil
}

// Plan is a saturation plan: the goal number and the most slots the app
// can still use on a board with Slots usable slots. The zero Plan means
// not yet planned.
type Plan struct {
	Slots     int
	Goal      int
	MaxUseful int
}

// TaskState reports the state of task t.
func (a *App) TaskState(t int) TaskState { return a.state[t] }

// TaskSlot reports the slot hosting task t, or -1.
func (a *App) TaskSlot(t int) int { return a.slot[t] }

// DoneCount reports how many items task t has completed.
func (a *App) DoneCount(t int) int { return a.doneCnt[t] }

// ItemDone reports whether task t has completed item i.
func (a *App) ItemDone(t, i int) bool { return i < a.doneCnt[t] }

// InflightItem reports the item task t is currently processing, or -1.
func (a *App) InflightItem(t int) int { return a.inflight[t] }

// Retired reports whether the application has completed and retired.
func (a *App) Retired() bool { return a.retired }

// ServiceWeight resolves the tenant share for fairness arithmetic: the
// configured Weight, or 1 when unset.
func (a *App) ServiceWeight() float64 {
	if a.Weight <= 0 {
		return 1
	}
	return a.Weight
}

// Done reports whether every task has processed every batch item.
func (a *App) Done() bool { return a.tasksFin == a.Graph.NumTasks() }

// SlotsUsed counts slots currently held (configuring or active). It is
// a counter the Mark* transitions keep: configuring a task raises it,
// and a task going back to idle or finishing its batch lowers it.
func (a *App) SlotsUsed() int { return a.slotsUsed }

// OverConsumption is slots used beyond the policy allocation (Algorithm 2
// line 4 of the paper).
func (a *App) OverConsumption() int { return a.SlotsUsed() - a.SlotsAllocated }

// Configurable reports whether task t may be scheduled for
// reconfiguration: it is idle, unfinished, and every predecessor has at
// least been scheduled (configuring, active, or done). This lets the
// overlay hide reconfiguration latency behind predecessor compute for all
// policies; whether the configured task may actually *start* items before
// its predecessors finish the whole batch is the pipelining policy,
// enforced by NextReadyItem.
//
// An idle task is always unfinished: only MarkItemDone completes a
// batch, and it moves the task to TaskDone. So the rule reads the task
// states alone.
func (a *App) Configurable(t int) bool {
	if a.state[t] != TaskIdle {
		return false
	}
	for _, p := range a.Graph.Pred(t) {
		if a.state[p] == TaskIdle {
			return false
		}
	}
	return true
}

// ConfigurableTasks lists configurable tasks in topological order. The
// returned slice is app-owned scratch, valid only until the next
// ConfigurableTasks call on the same app; callers must not retain or
// mutate it. Policies call this in their inner loops, so it must not
// allocate.
//
// Configurable reads only which tasks are idle, so the list can change
// only when a task enters or leaves TaskIdle. It is rebuilt on the
// first call after such a transition and returned unchanged until the
// next one.
func (a *App) ConfigurableTasks() []int {
	if a.cfgValid {
		return a.cfg
	}
	out := a.cfg[:0]
	for _, t := range a.Graph.Topo() {
		if a.Configurable(t) {
			out = append(out, t)
		}
	}
	a.cfg, a.cfgValid = out, true
	return out
}

// toIdle returns task t to TaskIdle from a slot-holding state.
func (a *App) toIdle(t int) {
	a.state[t] = TaskIdle
	a.slot[t] = -1
	a.slotsUsed--
	a.cfgValid = false
}

// NextReadyItem returns the next batch item task t can process, or -1.
// With pipelining, item i is ready once every predecessor has finished
// item i; without, no item is ready until every predecessor has finished
// the entire batch (bulk processing).
func (a *App) NextReadyItem(t int, pipelining bool) int {
	if !pipelining {
		for _, p := range a.Graph.Pred(t) {
			if a.doneCnt[p] < a.Batch {
				return -1
			}
		}
	}
	// Items are processed in order, so the candidate is the first item
	// past the done prefix that is not in flight. If it is not ready,
	// later ones cannot be either (predecessors also process in order).
	i := a.doneCnt[t]
	if a.inflight[t] == i {
		i++
	}
	if i >= a.Batch {
		return -1
	}
	if pipelining {
		for _, p := range a.Graph.Pred(t) {
			if i >= a.doneCnt[p] {
				return -1
			}
		}
	}
	return i
}

// RemainingEstimate is the HLS-estimated work left: sum over tasks of
// estimate x remaining items. PREMA uses it for shortest-first selection
// and dispatchers as a board's load signal, so it is kept up to date as
// items finish rather than summed on demand.
func (a *App) RemainingEstimate() sim.Duration { return a.remaining }

// MarkConfiguring transitions task t to TaskConfiguring in the given slot.
func (a *App) MarkConfiguring(t, slot int) error {
	if a.state[t] != TaskIdle {
		return fmt.Errorf("sched: %s task %d is %v, cannot configure", a.Name, t, a.state[t])
	}
	a.state[t] = TaskConfiguring
	a.slot[t] = slot
	a.slotsUsed++
	a.cfgValid = false
	return nil
}

// MarkActive transitions task t from configuring to active.
func (a *App) MarkActive(t int) error {
	if a.state[t] != TaskConfiguring {
		return fmt.Errorf("sched: %s task %d is %v, cannot activate", a.Name, t, a.state[t])
	}
	a.state[t] = TaskActive
	return nil
}

// MarkConfigFailed returns a task whose reconfiguration faulted
// unrecoverably to idle so the policy can schedule it again.
func (a *App) MarkConfigFailed(t int) error {
	if a.state[t] != TaskConfiguring {
		return fmt.Errorf("sched: %s task %d is %v, cannot fail configuration", a.Name, t, a.state[t])
	}
	a.toIdle(t)
	return nil
}

// MarkPreempted returns task t to idle, preserving batch progress.
func (a *App) MarkPreempted(t int) error {
	if a.state[t] != TaskActive {
		return fmt.Errorf("sched: %s task %d is %v, cannot preempt", a.Name, t, a.state[t])
	}
	if a.inflight[t] >= 0 {
		return fmt.Errorf("sched: %s task %d preempted mid-item %d", a.Name, t, a.inflight[t])
	}
	a.toIdle(t)
	return nil
}

// MarkCheckpointPreempted preempts task t mid-item: classic preemption
// with state checkpointing (the alternative the paper rejects for
// requiring FPGA state capture, modelled here for the design-space
// study). The in-flight item is aborted — its saved state lets it resume
// later — and the task returns to idle. It returns the aborted item, or
// -1 if the task was at a batch boundary anyway.
func (a *App) MarkCheckpointPreempted(t int) (int, error) {
	if a.state[t] != TaskActive {
		return -1, fmt.Errorf("sched: %s task %d is %v, cannot checkpoint-preempt", a.Name, t, a.state[t])
	}
	item := a.inflight[t]
	a.inflight[t] = -1
	a.toIdle(t)
	return item, nil
}

// MarkKilled aborts task t after a watchdog kill or a permanent slot
// failure. Unlike MarkCheckpointPreempted there is no saved state: the
// in-flight item's progress is lost and the item will be re-executed from
// scratch when the task is rescheduled. It returns the aborted item, or
// -1 if the task was between items.
func (a *App) MarkKilled(t int) (int, error) {
	if a.state[t] != TaskActive {
		return -1, fmt.Errorf("sched: %s task %d is %v, cannot kill", a.Name, t, a.state[t])
	}
	item := a.inflight[t]
	a.inflight[t] = -1
	a.toIdle(t)
	return item, nil
}

// MarkItemStarted records that task t began processing item i.
func (a *App) MarkItemStarted(t, i int) error {
	if a.state[t] != TaskActive {
		return fmt.Errorf("sched: %s task %d is %v, cannot start item", a.Name, t, a.state[t])
	}
	if a.inflight[t] != -1 {
		return fmt.Errorf("sched: %s task %d already processing item %d", a.Name, t, a.inflight[t])
	}
	if i != a.doneCnt[t] || i >= a.Batch {
		return fmt.Errorf("sched: %s task %d item %d out of order (next is %d of %d)", a.Name, t, i, a.doneCnt[t], a.Batch)
	}
	a.inflight[t] = i
	return nil
}

// MarkItemDone records completion of the in-flight item. It reports
// whether the task has now finished its whole batch; if so the task
// transitions to TaskDone and its slot association is cleared.
func (a *App) MarkItemDone(t, i int) (taskDone bool, err error) {
	if i < 0 || a.inflight[t] != i {
		return false, fmt.Errorf("sched: %s task %d finishing item %d but in-flight is %d", a.Name, t, i, a.inflight[t])
	}
	a.inflight[t] = -1
	a.doneCnt[t]++
	a.remaining -= a.Report.Task(t).Latency
	if a.doneCnt[t] == a.Batch {
		// Active -> Done leaves the idle set, and so the configurable
		// list, as it was.
		a.state[t] = TaskDone
		a.slot[t] = -1
		a.slotsUsed--
		a.tasksFin++
		return true, nil
	}
	return false, nil
}

// MarkAborted force-retires the application regardless of progress:
// the hypervisor evacuated it off a dead board or cancelled it as a
// hedge loser. Policies that retain stale references (RR's slot queues)
// see Retired() and skip it; the app object is otherwise discarded.
func (a *App) MarkAborted() { a.retired = true }

// Retire marks the application complete.
func (a *App) Retire() error {
	if !a.Done() {
		return fmt.Errorf("sched: retiring %s with %d/%d tasks done", a.Name, a.tasksFin, a.Graph.NumTasks())
	}
	if a.retired {
		return fmt.Errorf("sched: %s retired twice", a.Name)
	}
	a.retired = true
	return nil
}

// String summarizes the app for traces.
func (a *App) String() string {
	return fmt.Sprintf("%s#%d{batch=%d prio=%d arrival=%v}", a.Name, a.ID, a.Batch, a.Priority, a.Arrival)
}
