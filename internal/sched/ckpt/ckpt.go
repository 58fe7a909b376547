// Package ckpt implements NimblockCheckpoint: the full Nimblock
// algorithm plus mid-batch SLO-rescue preemption built on the
// checkpoint/restore subsystem.
//
// Plain Nimblock only preempts at batch boundaries, so a high-priority
// arrival can wait out an entire item of a long-running low-priority
// batch before a slot frees. When the hypervisor runs with
// Config.Checkpoint enabled, a preemption request is honoured mid-item:
// the victim checkpoints at its latest passed preemption point, releases
// the slot, and resumes from the snapshot later. This policy exploits
// that: when a priority-9 application is pending with no slots and its
// projected completion would miss its SLO, it requests preemption of the
// busiest lower-priority mid-item victim instead of waiting for a
// boundary.
//
// The SLO model matches the deadline analysis (Section 5.4): an
// application's deadline is its arrival plus SLOFactor times its
// single-slot latency estimate, computed policy-side from the HLS report
// and board bandwidths.
package ckpt

import (
	"nimblock/internal/core"
	"nimblock/internal/fpga"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// DefaultSLOFactor scales the single-slot estimate into a deadline; 3x
// is the paper's mid "loose" deadline tier.
const DefaultSLOFactor = 3.0

// DefaultRescuePriority is the minimum priority eligible for SLO-rescue
// preemption: only the paper's highest (real-time) tier.
const DefaultRescuePriority = 9

// Options configures the policy.
type Options struct {
	// Core selects the underlying Nimblock features.
	Core core.Options
	// SLOFactor scales the single-slot latency estimate into each
	// application's deadline (arrival + SLOFactor x estimate). Zero means
	// DefaultSLOFactor.
	SLOFactor float64
	// RescuePriority is the minimum priority whose SLO triggers a rescue
	// preemption. Zero means DefaultRescuePriority.
	RescuePriority int
}

// DefaultOptions enables the full algorithm with the default SLO model.
func DefaultOptions() Options {
	return Options{Core: core.DefaultOptions(), SLOFactor: DefaultSLOFactor, RescuePriority: DefaultRescuePriority}
}

// Scheduler wraps the core Nimblock policy with the SLO-rescue pass.
type Scheduler struct {
	opts  Options
	inner *core.Scheduler
	board fpga.Config
	guard guardedWorld // the core pass's world, kept so Schedule does not box a new one
}

// New returns a NimblockCheckpoint scheduler planning against boards
// shaped like the given configuration.
func New(opts Options, board fpga.Config) *Scheduler {
	if opts.SLOFactor <= 0 {
		opts.SLOFactor = DefaultSLOFactor
	}
	if opts.RescuePriority <= 0 {
		opts.RescuePriority = DefaultRescuePriority
	}
	return &Scheduler{
		opts:  opts,
		inner: core.New(opts.Core, board),
		board: board,
		guard: guardedWorld{min: opts.RescuePriority},
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "NimblockCheckpoint" }

// Pipelining implements sched.Scheduler.
func (s *Scheduler) Pipelining() bool { return s.inner.Pipelining() }

// Schedule implements sched.Scheduler. An SLO-missed rescue-priority
// application claims a free slot before the core pass can hand it back
// to an older candidate (the usual fate of a slot a rescue just freed);
// the core pass then runs with its over-consumption preemption blinded
// to rescue-priority occupants, so it cannot immediately evict the app
// the rescue placed; finally the SLO-rescue check preempts a victim for
// whatever is still pending and past its slack.
func (s *Scheduler) Schedule(w sched.World, why sched.Reason) {
	s.place(w)
	s.guard.World = w
	s.inner.Schedule(&s.guard, why)
	s.rescue(w)
}

// NextWake implements sched.Waker: the earlier of the core policy's
// token wake and the first instant a pending rescue-priority
// application turns urgent (see urgent). Applications that already
// turned urgent stay urgent, so only future crossings count.
func (s *Scheduler) NextWake(w sched.World) sim.Time {
	wake, now := s.inner.NextWake(w), w.Now()
	for _, a := range w.Apps() {
		if a.Priority < s.opts.RescuePriority {
			continue
		}
		if t := s.lastStart(a) + 1; t > now {
			wake = min(wake, t)
		}
	}
	return wake
}

// guardedWorld passes everything through except preemption requests
// against rescue-priority occupants: a rescued real-time application
// must not be evicted on behalf of a lower-priority over-consumption
// claim, or the rescue and the core pass livelock swapping the slot.
type guardedWorld struct {
	sched.World
	min int
}

func (g guardedWorld) RequestPreempt(slot int) error {
	if a, _, ok := g.World.SlotOccupant(slot); ok && a.Priority >= g.min {
		return nil // declined: the occupant outranks boundary preemption
	}
	return g.World.RequestPreempt(slot)
}

// place gives an SLO-missed rescue-priority application first claim on
// a free slot. The core pass allocates oldest-candidate-first, so
// without this the slot a rescue freed would go straight back to the
// long-waiting victim it was taken from.
func (s *Scheduler) place(w sched.World) {
	if w.CAPBusy() {
		return
	}
	free := w.FreeSlots()
	if len(free) == 0 {
		return
	}
	urgent := s.urgent(w)
	if urgent == nil {
		return
	}
	if tasks := urgent.ConfigurableTasks(); len(tasks) > 0 {
		w.Reconfigure(free[0], urgent, tasks[0])
	}
}

// estimate is the application's single-slot latency from HLS estimates
// alone: one reconfiguration per task plus the serial batch. It is
// memoized on the app, which one scheduler plans for its whole life, so
// the memo leaves with the app.
func (s *Scheduler) estimate(a *sched.App) sim.Duration {
	if a.SLOEstimate > 0 {
		return a.SLOEstimate
	}
	var work sim.Duration
	for t := 0; t < a.Graph.NumTasks(); t++ {
		work += a.Report.Task(t).Latency
	}
	a.SLOEstimate = sim.Duration(a.Graph.NumTasks())*s.board.ReconfigTime() + sim.Duration(a.Batch)*work
	return a.SLOEstimate
}

// lastStart is the latest instant the application can start and still
// meet its deadline (arrival + SLOFactor x estimate) running single-slot.
func (s *Scheduler) lastStart(a *sched.App) sim.Time {
	est := s.estimate(a)
	return a.Arrival.Add(sim.Duration(float64(est) * s.opts.SLOFactor)).Add(-est)
}

// urgent returns the oldest pending rescue-priority application that
// would miss its deadline even if it started right now, or nil.
func (s *Scheduler) urgent(w sched.World) *sched.App {
	now := w.Now()
	var urgent *sched.App
	for _, a := range w.Apps() {
		if a.Priority < s.opts.RescuePriority || a.SlotsUsed() > 0 {
			continue
		}
		if len(a.ConfigurableTasks()) == 0 {
			continue
		}
		if now <= s.lastStart(a) {
			continue // still on track even if it starts right now
		}
		if urgent == nil || a.Arrival < urgent.Arrival {
			urgent = a
		}
	}
	return urgent
}

// rescue issues at most one mid-item preemption per opportunity: when
// the oldest pending rescue-priority application has no slots, none are
// free, and its projected completion (start now, run single-slot) would
// land past its deadline, the busiest lower-priority mid-item occupant
// is preempted. Boundary-waiting tasks are left to the core policy's
// own (cheaper) boundary preemption.
func (s *Scheduler) rescue(w sched.World) {
	// One preemption in flight at a time, shared with the core pass.
	for slot := 0; slot < w.NumSlots(); slot++ {
		if w.PreemptRequested(slot) {
			return
		}
	}
	if len(w.FreeSlots()) > 0 {
		return // a slot is already available; the core pass will use it
	}
	urgent := s.urgent(w)
	if urgent == nil {
		return
	}
	// Victim: the mid-item slot whose lower-priority occupant has the
	// most estimated work remaining — the one a boundary wait would stall
	// behind longest. Ties keep the lowest slot.
	victimSlot := -1
	var victimRem sim.Duration
	for slot := 0; slot < w.NumSlots(); slot++ {
		a, task, ok := w.SlotOccupant(slot)
		if !ok || a.Priority >= urgent.Priority {
			continue
		}
		if a.TaskState(task) != sched.TaskActive {
			continue
		}
		if rem := a.RemainingEstimate(); victimSlot == -1 || rem > victimRem {
			victimSlot, victimRem = slot, rem
		}
	}
	if victimSlot >= 0 {
		w.RequestPreempt(victimSlot)
	}
}
