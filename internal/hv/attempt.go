package hv

// Item execution. An attempt is one MarkItemStarted..{done, killed,
// preempted} episode of a batch item on a slot. Every attempt runs the
// same lifecycle, and each step below exists once:
//
//	start    tryStart -> startAttempt (restore from a snapshot, if any) -> beginRun
//	pause    pause folds the running stretch (capture, freeze)
//	settle   settle commits work up to the last snapshot, wastes the rest
//	end      itemDone | kill (watchdog, slot death) | checkpointPreempt
//	free     vacate releases the region and resets the slot runtime

import (
	"fmt"

	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

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
		h.eng.At(avail, h.bind(&h.fnsAt(slot).kick, (*Hypervisor).tryStart, slot))
		return
	}
	if err := a.MarkItemStarted(task, item); err != nil {
		h.fail(err)
		return
	}
	rt.curItem = item
	res := &rt.rec.res
	if res.FirstLaunch < 0 {
		res.FirstLaunch = h.eng.Now()
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindItemStart, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item})
	h.startAttempt(slot, a, task, item)
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
	if !h.restore(slot, a, task, item) {
		h.beginRun(slot)
	}
}

// beginRun starts (or resumes) the compute stretch of the slot's
// current attempt and arms its completion, watchdog, and periodic-save
// timers.
func (h *Hypervisor) beginRun(slot int) {
	rt := &h.slots[slot]
	fns := h.fnsAt(slot)
	nominal := rt.app.Graph.Task(rt.task).Latency
	remaining := nominal - rt.base - rt.doneNominal
	if remaining < 0 {
		remaining = 0 // float rounding across pause/resume cycles
	}
	rt.stretch = stretchDur(remaining, rt.factor)
	rt.itemStart = h.eng.Now()
	if !rt.hung {
		rt.itemEv = h.eng.After(rt.stretch, h.bind(&fns.itemDone, (*Hypervisor).itemDone, slot))
	}
	if h.cfg.WatchdogFactor > 0 && rt.wdLeft > 0 {
		rt.wdEv = h.eng.After(rt.wdLeft, h.bind(&fns.watchdog, (*Hypervisor).watchdogFire, slot))
	}
	if h.cfg.Checkpoint.Period > 0 && h.ckptOn() && !rt.hung {
		rt.freshAt = h.freshBound(rt)
		h.armSave(slot)
	}
}

// stopTimers cancels the slot's completion, watchdog, and periodic-save
// timers. Cancelling a timer that already fired is a no-op.
func (h *Hypervisor) stopTimers(rt *slotRuntime) {
	h.eng.Cancel(rt.itemEv)
	h.eng.Cancel(rt.wdEv)
	h.eng.Cancel(rt.ckptEv)
	rt.itemEv, rt.wdEv, rt.ckptEv = 0, 0, 0
}

// runningAt is the nominal progress of the attempt's current stretch
// at instant t; a hung kernel makes none.
func (h *Hypervisor) runningAt(rt *slotRuntime, t sim.Time) sim.Duration {
	if rt.hung {
		return 0
	}
	return unstretchDur(t.Sub(rt.itemStart), rt.factor)
}

// pause stops the slot's timers and folds the attempt's running stretch
// into its done counters. The stretch consumes watchdog budget; the
// pause itself (a state transfer, a frozen board) does not.
func (h *Hypervisor) pause(rt *slotRuntime) {
	h.stopTimers(rt)
	elapsed := h.eng.Now().Sub(rt.itemStart)
	rt.doneNominal += h.runningAt(rt, h.eng.Now())
	rt.doneWall += elapsed
	rt.itemStart = h.eng.Now()
	rt.wdLeft -= elapsed
	if rt.wdLeft < 1 {
		rt.wdLeft = 1 // fire immediately after resume
	}
}

// attemptWall is the wall compute the in-flight attempt has consumed:
// its folded stretches plus the running one, which does not exist while
// the attempt is paused for a state transfer.
func (h *Hypervisor) attemptWall(rt *slotRuntime) sim.Duration {
	wall := rt.doneWall
	if !rt.saving && !rt.restoring {
		wall += h.eng.Now().Sub(rt.itemStart)
	}
	return wall
}

// itemDone completes the slot's in-flight item: its completion timer
// fired, and every path that ends or pauses an attempt cancels that
// timer, so the slot still holds the attempt that armed it.
func (h *Hypervisor) itemDone(slot int) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	a, task, item := rt.app, rt.task, rt.curItem
	h.stopTimers(rt)
	rt.curItem = -1
	taskDone, err := a.MarkItemDone(task, item)
	if err != nil {
		h.fail(err)
		return
	}
	h.outstanding -= a.Report.Task(task).Latency
	h.loaded()
	r := rt.rec
	h.recordProduction(r, task, item, slot)
	// The attempt's earlier stretches (between periodic saves) are
	// booked now, with the final stretch; save pauses were booked at
	// each save. The snapshot, held by the slot, is obsolete once the
	// item completes.
	run := rt.stretch + rt.doneWall
	rt.base, rt.doneNominal, rt.doneWall = 0, 0, 0
	rt.last, rt.hasLast = ckptRecord{}, false
	r.res.Run += run
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
		h.kickApp(r)
		h.poke(sched.ReasonSlotFree)
		return
	}
	// Wake downstream pipelined instances, then this slot.
	h.kickApp(r)
}

// kickApp retries item starts on every slot hosting the record's
// application, in ascending slot order — item completions upstream may
// have unblocked pipelined consumers.
func (h *Hypervisor) kickApp(r *appRecord) {
	for s := r.hosts.next(-1); s >= 0; s = r.hosts.next(s) {
		h.tryStart(s)
	}
}

// kickApps retries item starts everywhere (used after retirement).
func (h *Hypervisor) kickApps() {
	for s := range h.slots {
		h.tryStart(s)
	}
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
	// An in-flight transfer completes first; its callback honours the
	// request.
	if h.ckptOn() && !rt.saving && !rt.restoring {
		h.capture(slot, false)
	}
	return nil
}

// doPreempt saves batch state (already tracked in the App) and frees the
// slot. Only legal at a batch boundary.
func (h *Hypervisor) doPreempt(slot int) {
	rt := &h.slots[slot]
	a, r, task := rt.app, rt.rec, rt.task
	if err := a.MarkPreempted(task); err != nil {
		h.fail(err)
		return
	}
	if h.vacate(slot) != nil {
		return
	}
	r.res.Preemptions++
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindPreempt, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
	h.wake(sched.ReasonSlotFree)
}

// resetSlot forgets the slot's occupant, cancelling its timers so none
// can fire for the next one.
func (h *Hypervisor) resetSlot(slot int) {
	rt := &h.slots[slot]
	h.stopTimers(rt)
	if rt.rec != nil {
		rt.rec.hosts.remove(slot)
	}
	*rt = slotRuntime{curItem: -1}
}

// vacate releases the slot's region on the board and forgets its
// occupant.
func (h *Hypervisor) vacate(slot int) error {
	if err := h.board.Release(slot); err != nil {
		return h.fail(err)
	}
	h.resetSlot(slot)
	return nil
}

// kill ends the slot's occupancy without finishing its task — a
// watchdog kill or a slot death. An in-flight attempt is settled: only
// progress since its last snapshot is wasted, and the snapshot survives
// to resume the re-execution. The task goes back to the policy and the
// slot is vacated. kill returns the item that was in flight (-1 if the
// task waited at a batch boundary).
func (h *Hypervisor) kill(slot int) (int, error) {
	rt := &h.slots[slot]
	a, task := rt.app, rt.task
	if rt.curItem >= 0 {
		h.settle(slot, rt)
	}
	item, err := a.MarkKilled(task)
	if err != nil {
		return -1, h.fail(err)
	}
	return item, h.vacate(slot)
}

// watchdogFire kills a task whose in-flight item outlived its deadline.
// The item re-executes when the task is rescheduled — from its last
// checkpoint when checkpointing is enabled, from scratch otherwise.
// Like itemDone, it fires only for the attempt that armed it; a save
// pauses the attempt and cancels the watchdog until the run resumes.
func (h *Hypervisor) watchdogFire(slot int) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	a, task, item := rt.app, rt.task, rt.curItem
	h.rec.WatchdogKills++
	aborted, err := h.kill(slot)
	if err != nil {
		return
	}
	if aborted != item {
		h.fail(fmt.Errorf("hv: watchdog on slot %d aborted item %d, expected %d", slot, aborted, item))
		return
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindWatchdog, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item})
	h.wake(sched.ReasonSlotFree)
}

// forceOffline is the permanent-failure path: the slot dies at a
// plan-known time regardless of what it is doing. A loaded occupant is
// killed — its lost item re-executes elsewhere — and the slot leaves
// service for good.
func (h *Hypervisor) forceOffline(slot int) {
	if h.err != nil || h.halted() || !h.board.SlotUsable(slot) {
		return
	}
	if rt := &h.slots[slot]; rt.app != nil && rt.active {
		if _, err := h.kill(slot); err != nil {
			return
		}
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

// noteOffline traces a slot's departure and extends the slot timeline.
func (h *Hypervisor) noteOffline(slot int) {
	h.loaded()
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindSlotOffline, AppID: -1, Task: -1, Slot: slot, Item: -1})
	h.rec.Timeline = append(h.rec.Timeline, SlotSample{At: h.eng.Now(), Usable: h.board.UsableSlots()})
}

// onRetry traces a faulted reconfiguration the board is about to
// stream again; a request's terminal failure is traced as KindFault on
// the reconfigDone error path.
func (h *Hypervisor) onRetry(slot int) {
	e := trace.Event{At: h.eng.Now(), Kind: trace.KindRetry, AppID: -1, Task: -1, Slot: slot, Item: -1}
	if rt := &h.slots[slot]; rt.app != nil {
		e.App, e.AppID, e.Task = rt.app.Name, rt.app.ID, rt.task
	}
	h.trace(e)
}
