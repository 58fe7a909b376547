package hv

// The checkpoint/restore subsystem (Config.Checkpoint). One capture
// path serves periodic and on-demand saves: both pause the item at the
// latest preemption point it has passed and stream its state out
// through the CAP. One restore path streams a snapshot back in at the
// start of an attempt — including snapshots migrated in from a dead
// board. Killed and preempted attempts settle against the last snapshot:
// work up to it is committed, work past it is wasted.

import (
	"fmt"

	"nimblock/internal/fpga"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// ckptRecord is one saved snapshot: the nominal work it captured and
// the state size to stream back.
type ckptRecord struct {
	progress sim.Duration
	bytes    int64
}

func (r *appRecord) snapshot(task, item int) (ckptRecord, bool) {
	rec, ok := r.ckpt[[2]int{task, item}]
	return rec, ok
}

func (r *appRecord) setSnapshot(task, item int, rec ckptRecord) {
	if r.ckpt == nil {
		r.ckpt = map[[2]int]ckptRecord{}
	}
	r.ckpt[[2]int{task, item}] = rec
}

func (r *appRecord) dropSnapshot(task, item int) { delete(r.ckpt, [2]int{task, item}) }

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

// armSave schedules the next periodic save of the running item.
func (h *Hypervisor) armSave(slot int) {
	h.slots[slot].ckptEv = h.eng.After(h.cfg.Checkpoint.Period, h.fnsFor(slot).save)
}

// periodicSave is the periodic checkpoint timer. It is armed only while
// a non-hung item runs (a hung one has no consistent progress to save)
// and cancelled whenever the run pauses or ends.
func (h *Hypervisor) periodicSave(slot int) {
	if h.halted() {
		return
	}
	h.capture(slot, true)
}

// capture saves the state of the slot's running item at the latest
// preemption point it has passed. A periodic save with no new point
// since the last snapshot leaves the item running and tries again next
// period. An on-demand capture (a mid-item preemption request) pauses
// the item either way; with nothing new to save it releases the slot at
// once, and work past the last snapshot re-executes on resume.
func (h *Hypervisor) capture(slot int, periodic bool) {
	rt := &h.slots[slot]
	a, task, item := rt.app, rt.task, rt.curItem
	nominal := a.Graph.Task(task).Latency
	frac := float64(rt.base+rt.doneNominal+h.running(rt)) / float64(nominal)
	snap := sim.Duration(a.Graph.SnapFraction(task, frac, h.cfg.Checkpoint.DefaultPoints) * float64(nominal))
	last, _ := rt.rec.snapshot(task, item)
	fresh := snap > last.progress
	if periodic && !fresh {
		h.armSave(slot)
		return
	}
	h.pause(rt)
	rt.saving = true
	if !fresh {
		h.checkpointPreempt(slot, 0)
		return
	}
	rt.snap = ckptRecord{progress: snap, bytes: h.taskStateBytes(a, task)}
	rt.xferStart, rt.periodic = h.eng.Now(), periodic
	h.changes++ // the CAP turns busy; the save is traced when it lands
	if err := h.board.TransferState(slot, rt.snap.bytes, h.fnsFor(slot).captured); err != nil {
		h.fail(err)
	}
}

// captureDone records a finished capture, then resumes the paused item
// or, when a preemption is pending (always, for an on-demand capture),
// releases the slot. Only periodic saves are traced as ckpt-save
// events; an on-demand capture is reported by the checkpoint event that
// releases the slot.
//
// A CAP completion cannot be cancelled, so it may outlive the occupant
// that started it (an abort or slot death reset the slot mid-save). It
// then finds the slot not saving: the CAP is FIFO, and a freed slot must
// reconfigure behind the in-flight transfer before it can save or
// restore again. The same holds for restoreDone.
func (h *Hypervisor) captureDone(slot int) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if !rt.saving {
		h.changes++ // the CAP may turn idle; no event marks it
		return      // the slot was reset mid-save
	}
	a, task, item := rt.app, rt.task, rt.curItem
	d := h.eng.Now().Sub(rt.xferStart)
	rt.rec.setSnapshot(task, item, rt.snap)
	h.rec.CheckpointSaves++
	h.rec.CheckpointOverhead += d
	h.slotBusy[slot] += d
	if rt.periodic {
		h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpointSave, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: d, Progress: rt.snap.progress})
	}
	if rt.preempt {
		h.checkpointPreempt(slot, d)
		return
	}
	rt.saving = false
	h.beginRun(slot)
}

// settle books an attempt that ends without completing: wall compute up
// to the last snapshot is committed run time, everything since is
// wasted, and checkpoint transfer time is never double-counted (it
// lives in CheckpointOverhead). It returns the snapshot (zero if none).
func (h *Hypervisor) settle(slot int, rt *slotRuntime) ckptRecord {
	a, r := rt.app, rt.rec
	wall := h.attemptWall(rt)
	last, ok := r.snapshot(rt.task, rt.curItem)
	var committed sim.Duration
	if ok {
		committed = stretchDur(last.progress-rt.base, rt.factor)
	}
	if committed > wall {
		committed = wall
	}
	r.res.Run += committed
	h.addService(a, committed)
	h.slotBusy[slot] += wall
	h.rec.WastedWork += wall - committed
	return last
}

// checkpointPreempt completes a mid-item preemption of a paused
// attempt: settle it against its snapshot, abort the in-flight item
// (batch progress survives in the App), and free the slot.
func (h *Hypervisor) checkpointPreempt(slot int, saveDur sim.Duration) {
	rt := &h.slots[slot]
	a, r, task, item := rt.app, rt.rec, rt.task, rt.curItem
	last := h.settle(slot, rt)
	aborted, err := a.MarkCheckpointPreempted(task)
	if err != nil {
		h.fail(err)
		return
	}
	if aborted != item {
		h.fail(fmt.Errorf("hv: checkpoint of %s task %d aborted item %d, expected %d", a.Name, task, aborted, item))
		return
	}
	if h.vacate(slot) != nil {
		return
	}
	r.res.Preemptions++
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpoint, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: saveDur, Progress: last.progress})
	h.wake(sched.ReasonSlotFree)
}

// restore starts streaming the item's last snapshot back through the
// CAP, probing checkpoint-integrity faults. It reports false — run from
// scratch — when there is no snapshot or it was lost.
func (h *Hypervisor) restore(slot int, a *sched.App, task, item int) bool {
	rt := &h.slots[slot]
	last, ok := rt.rec.snapshot(task, item)
	if !ok {
		return false
	}
	probe := fpga.ProbeCheckpoint(h.board.Injector(), h.eng.Now(), a.Name, task, slot)
	if probe.Lost {
		// The snapshot is gone before a single byte streams back.
		h.snapshotFault(slot, a, task, item, last, 0)
		return false
	}
	rt.base = last.progress
	rt.restoring = true
	rt.snap, rt.corrupt, rt.xferStart = last, probe.Corrupt, h.eng.Now()
	if err := h.board.TransferState(slot, last.bytes, h.fnsFor(slot).restored); err != nil {
		h.fail(err)
	}
	return true
}

// restoreDone completes a checkpoint restore: the state streamed back
// through the CAP; either the item resumes from the snapshot or (corrupt
// snapshot) re-executes from scratch with the transfer time spent. A
// stale completion finds the slot not restoring (see captureDone).
func (h *Hypervisor) restoreDone(slot int) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if !rt.restoring {
		h.changes++ // as in captureDone
		return
	}
	a, task, item, last := rt.app, rt.task, rt.curItem, rt.snap
	d := h.eng.Now().Sub(rt.xferStart)
	h.rec.CheckpointOverhead += d
	h.slotBusy[slot] += d
	if rt.corrupt {
		rt.base = 0
		h.snapshotFault(slot, a, task, item, last, d)
	} else {
		h.rec.ResumedItems++
		h.rec.SavedWork += last.progress
		h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindRestore, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: d, Progress: last.progress})
	}
	if rt.preempt {
		// A preemption arrived while state streamed back: honour it now;
		// the snapshot (if intact) resumes on another slot.
		h.checkpointPreempt(slot, 0)
		return
	}
	rt.restoring = false
	h.beginRun(slot)
}

// snapshotFault discards a snapshot found lost or corrupt at restore
// time; the item falls back to from-scratch re-execution.
func (h *Hypervisor) snapshotFault(slot int, a *sched.App, task, item int, last ckptRecord, d sim.Duration) {
	h.slots[slot].rec.dropSnapshot(task, item)
	h.rec.FaultsInjected++
	h.rec.CheckpointFaults++
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpointFault, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: d, Progress: last.progress})
}
