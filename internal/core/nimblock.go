// Package core implements the Nimblock scheduling algorithm — the paper's
// primary contribution (Section 4).
//
// At each scheduling opportunity the algorithm:
//
//  1. accumulates PREMA-style tokens and updates the candidate pool
//     (Section 4.1, Algorithm 1);
//  2. reallocates slots: one slot per candidate oldest-first, then up to
//     each candidate's goal number (from saturation-point analysis), then
//     leftover slots to applications that can still use them
//     (Section 4.2);
//  3. selects a task from the oldest candidate with allocation headroom
//     and a configurable task, and a free slot to host it (Section 4.3);
//     pipelining across batch items begins automatically because extra
//     slots admit downstream tasks while upstream ones still run;
//  4. if a task is ready but no slot is free, batch-preempts the
//     application that most exceeds its allocation, choosing its latest
//     task in topological order (Section 4.4, Algorithm 2); the
//     hypervisor honours the preemption at the next batch boundary so no
//     user-logic state is ever checkpointed.
//
// Options switch off preemption and/or pipelining for the paper's
// ablation study (Section 5.6). Energy is NimblockEnergy: the same pass
// with a fairness order on the candidates and without phase 3 of the
// reallocation (see energy.go).
package core

import (
	"nimblock/internal/fpga"
	"nimblock/internal/saturate"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// Options selects Nimblock features; both on is the full algorithm.
type Options struct {
	// Preemption enables batch-preemption of over-consuming applications.
	Preemption bool
	// Pipelining enables cross-batch pipelining of an application's tasks.
	Pipelining bool
}

// DefaultOptions enables the full algorithm.
func DefaultOptions() Options { return Options{Preemption: true, Pipelining: true} }

// Scheduler is the Nimblock policy.
type Scheduler struct {
	opts  Options
	plans *saturate.Planner
	cands []*sched.App // scratch, reused across Schedule calls
}

// New returns a Nimblock scheduler that will plan against boards shaped
// like the given configuration (the saturation analysis sweeps its slot
// count and reconfiguration latency).
func New(opts Options, board fpga.Config) *Scheduler {
	return &Scheduler{opts: opts, plans: saturate.NewPlanner(board, opts.Pipelining)}
}

// Name implements sched.Scheduler, matching the ablation labels used in
// Figures 9-11 of the paper.
func (s *Scheduler) Name() string {
	switch {
	case s.opts.Preemption && s.opts.Pipelining:
		return "Nimblock"
	case !s.opts.Preemption && s.opts.Pipelining:
		return "NimblockNoPreempt"
	case s.opts.Preemption && !s.opts.Pipelining:
		return "NimblockNoPipe"
	default:
		return "NimblockNoPreemptNoPipe"
	}
}

// Pipelining implements sched.Scheduler.
func (s *Scheduler) Pipelining() bool { return s.opts.Pipelining }

// NextWake implements sched.Waker: the policy reads the clock only
// through its tokens.
func (s *Scheduler) NextWake(w sched.World) sim.Time { return sched.TokenWake(w.Now(), w.Apps()) }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(w sched.World, why sched.Reason) {
	apps := w.Apps()
	sched.AccrueTokens(w.Now(), apps)
	s.cands = sched.CandidatesInto(s.cands, apps)
	s.reallocate(w, s.cands)
	launch(w, s.cands, s.opts.Preemption)
}

// reallocate recomputes SlotsAllocated for every pending application
// (Section 4.2). It runs on every scheduling opportunity, which subsumes
// the paper's "periodic intervals plus candidate-pool changes" triggers.
func (s *Scheduler) reallocate(w sched.World, cands []*sched.App) {
	usable, remaining := allocateGoals(w, cands, s.plans)
	// Phase 3: hand leftover slots to applications that can still make
	// use of them, in age order, so older applications can pipeline
	// aggressively toward their deadlines.
	for _, a := range cands {
		if remaining == 0 {
			return
		}
		add := min(s.plans.Plan(a, usable).MaxUseful-a.SlotsAllocated, remaining)
		if add > 0 {
			a.SlotsAllocated += add
			remaining -= add
		}
	}
}

// allocateGoals runs phases 1 and 2 of the reallocation: one slot per
// candidate, then up to each candidate's goal number, both in candidate
// order. It returns the usable slot count it budgeted and the slots
// left over.
func allocateGoals(w sched.World, cands []*sched.App, plans *saturate.Planner) (usable, remaining int) {
	for _, a := range w.Apps() {
		a.SlotsAllocated = 0
	}
	// Budget only the usable slots: a quarantined board degrades into a
	// smaller one and the goal numbers below are recomputed to match.
	usable = w.UsableSlots()
	remaining = usable
	// Phase 1: one slot per candidate, so every candidate makes forward
	// progress.
	for _, a := range cands {
		if remaining == 0 {
			return usable, 0
		}
		a.SlotsAllocated = 1
		remaining--
	}
	// Phase 2: raise allocations to the goal number.
	for _, a := range cands {
		if remaining == 0 {
			return usable, 0
		}
		an := plans.Plan(a, usable)
		a.Goal = an.Goal
		add := min(an.Goal-a.SlotsAllocated, remaining)
		if add > 0 {
			a.SlotsAllocated += add
			remaining -= add
		}
	}
	return usable, remaining
}

// launch picks one task to configure (Section 4.3): the first candidate
// with allocation headroom and a configurable task wins the idle CAP,
// and the lowest-index free slot hosts it. Only one slot can be
// reconfigured at a time, so at most one reconfiguration is issued per
// opportunity, and only when the CAP is idle. With preemption on, a
// ready task that finds no free slot triggers Algorithm 2.
func launch(w sched.World, cands []*sched.App, preemption bool) {
	if w.CAPBusy() {
		return
	}
	for _, a := range cands {
		if a.SlotsAllocated == 0 || a.SlotsUsed() >= a.SlotsAllocated {
			continue
		}
		tasks := a.ConfigurableTasks()
		if len(tasks) == 0 {
			continue
		}
		if free := w.FreeSlots(); len(free) > 0 {
			w.Reconfigure(free[0], a, tasks[0])
			return
		}
		// A task is ready but no slot is available: consider preemption.
		if preemption {
			preempt(w)
		}
		return
	}
}

// preempt implements Algorithm 2: select the application that most
// exceeds its slot allocation and batch-preempt its topologically latest
// running task. The paper returns without acting when the victim is
// mid-item and re-evaluates at the next step; our preemption request is
// honoured by the hypervisor at the batch boundary, which yields the same
// boundary-only semantics without re-polling.
func preempt(w sched.World) {
	// One preemption in flight at a time.
	for slot := 0; slot < w.NumSlots(); slot++ {
		if w.PreemptRequested(slot) {
			return
		}
	}
	// An app occupying several slots is examined once per slot, but its
	// over-consumption is identical each time and the comparison is
	// strict, so the first slot decides — no dedup set needed.
	var victim *sched.App
	over := 0
	for slot := 0; slot < w.NumSlots(); slot++ {
		a, _, ok := w.SlotOccupant(slot)
		if !ok {
			continue
		}
		if c := a.OverConsumption(); c > over {
			over, victim = c, a
		}
	}
	if victim == nil {
		return // no over-consumer: nothing is preempted
	}
	// Latest task in topological order eliminates the chance of removing
	// a pipelined dependency of another running task.
	rank := victim.Graph.TopoRank()
	bestSlot, bestRank := -1, -1
	for slot := 0; slot < w.NumSlots(); slot++ {
		a, task, ok := w.SlotOccupant(slot)
		if !ok || a != victim || a.TaskState(task) != sched.TaskActive {
			continue
		}
		if rank[task] > bestRank {
			bestRank, bestSlot = rank[task], slot
		}
	}
	if bestSlot >= 0 {
		w.RequestPreempt(bestSlot)
	}
}
