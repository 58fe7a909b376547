package hv

// Reconfiguration, data buffers, and inter-slot hand-offs: everything
// between the policy asking for a task in a slot and the task's items
// finding their input data there.

import (
	"fmt"

	"nimblock/internal/interconnect"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// prodInfo records where and when a (task, item) was produced, for
// interconnect hand-off computation.
type prodInfo struct {
	at   sim.Time
	slot int
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
	if err := a.MarkConfiguring(task, slot); err != nil {
		return h.fail(err)
	}
	// The one place a slot gains an occupant: the record travels with
	// it, and counts the slot among the app's hosts.
	r := h.records[a.ID]
	h.slots[slot] = slotRuntime{app: a, rec: r, task: task, curItem: -1}
	r.hosts.add(slot)
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindReconfigStart, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
	if err := h.board.Reconfigure(slot, h.bindCAP(&h.fnsAt(slot).reconfigured, (*Hypervisor).reconfigDone, slot)); err != nil {
		return h.fail(err)
	}
	return nil
}

// reconfigDone completes the slot's reconfiguration. The occupant set
// by Reconfigure is still in place: only this completion resets a
// reconfiguring slot (evacuation halts the board first), and an aborted
// occupant stays until its stream lands.
func (h *Hypervisor) reconfigDone(slot int, err error) {
	if h.halted() {
		// Frozen or dead: the board never sees the completion. A failed
		// stream may still have taken the slot out of service.
		if err != nil {
			h.loaded()
		}
		return
	}
	rt := &h.slots[slot]
	a, task := rt.app, rt.task
	if a.Retired() {
		// Hedge-cancelled mid-reconfiguration (a configuring task never
		// lets an app retire normally): drop the stream's result and
		// free the slot for live work. No event marks the change.
		h.changes++
		if err == nil {
			if h.vacate(slot) != nil {
				return
			}
		} else {
			h.resetSlot(slot)
			h.slotHealth(slot)
		}
		h.wake(sched.ReasonSlotFree)
		return
	}
	if err != nil {
		// Unrecoverable fault: give the task back to the policy.
		h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindFault, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
		if e := a.MarkConfigFailed(task); e != nil {
			h.fail(e)
			return
		}
		h.resetSlot(slot)
		h.slotHealth(slot)
		h.poke(sched.ReasonSlotFree)
		return
	}
	if e := a.MarkActive(task); e != nil {
		h.fail(e)
		return
	}
	rt.active = true
	d := h.cfg.Board.ReconfigTime()
	res := &rt.rec.res
	res.Reconfig += d
	res.Reconfigurations++
	h.slotBusy[slot] += d
	if e := h.allocOutputBuffer(rt.rec, task); e != nil {
		h.fail(e)
		return
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindReconfigDone, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
	h.tryStart(slot)
	h.poke(sched.ReasonReconfigDone)
}

// slotHealth settles a slot whose reconfiguration failed for good: a
// fatal fault has already taken it out of service, and one fault too
// many quarantines it.
func (h *Hypervisor) slotHealth(slot int) {
	if !h.board.SlotUsable(slot) {
		h.noteOffline(slot)
	} else if th := h.cfg.QuarantineThreshold; th > 0 && h.board.SlotStats(slot).Faults >= th {
		h.quarantine(slot)
	}
}

// bufReleased marks a ledger entry whose buffer was freed, so a second
// release is an error and a re-activation allocates nothing.
const bufReleased = -1

// allocOutputBuffer gives the task a place to write results; consumers
// hold references until they finish the batch. Re-activations after
// preemption reuse the existing buffer.
func (h *Hypervisor) allocOutputBuffer(r *appRecord, task int) error {
	if r.refs == nil {
		r.refs = make([]int32, r.app.Graph.NumTasks())
	}
	if r.refs[task] != 0 {
		return nil
	}
	bytes := h.cfg.BufferBytes
	if h.bufUsed+bytes > h.cfg.MemCapacity {
		return fmt.Errorf("mem: out of memory: %d used + %d requested > %d capacity", h.bufUsed, bytes, h.cfg.MemCapacity)
	}
	// A sink's buffer is released when the task itself completes.
	r.refs[task] = int32(max(len(r.app.Graph.Succ(task)), 1))
	h.bufLive++
	h.bufUsed += bytes
	return nil
}

// releaseBuffer drops one consumer's reference on the task's output
// buffer, freeing it at zero. A buffer never allocated has nothing to
// release; one already freed is an error.
func (h *Hypervisor) releaseBuffer(r *appRecord, task int) error {
	switch c := r.refs[task]; c {
	case 0:
		return nil
	case bufReleased:
		return fmt.Errorf("mem: release of dead buffer %s#%d task%d.out", r.app.Name, r.app.ID, task)
	case 1:
		r.refs[task] = bufReleased
		h.bufLive--
		h.bufUsed -= h.cfg.BufferBytes
	default:
		r.refs[task] = c - 1
	}
	return nil
}

// finishTask relinquishes buffers and frees the slot.
func (h *Hypervisor) finishTask(slot int, a *sched.App, task int) error {
	r := h.slots[slot].rec
	// Drop one reference on each predecessor's output: this consumer is done.
	for _, p := range a.Graph.Pred(task) {
		if err := h.releaseBuffer(r, p); err != nil {
			return err
		}
	}
	// Sink tasks own their single output reference.
	if len(a.Graph.Succ(task)) == 0 {
		if err := h.releaseBuffer(r, task); err != nil {
			return err
		}
	}
	if err := h.vacate(slot); err != nil {
		return err
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindTaskDone, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: -1})
	return nil
}

// recordProduction notes where a (task, item) output was produced so
// consumer-side hand-offs can be priced. Only needed for explicit
// interconnect models.
func (h *Hypervisor) recordProduction(r *appRecord, task, item, slot int) {
	if h.ic.Kind() == interconnect.Folded {
		return
	}
	if r.prodAt == nil {
		r.prodAt = map[[2]int]prodInfo{}
	}
	r.prodAt[[2]int{task, item}] = prodInfo{at: h.eng.Now(), slot: slot}
}

// dataReadyAt reports when every predecessor's output for the item has
// arrived at the consumer slot, pricing each hand-off exactly once.
func (h *Hypervisor) dataReadyAt(a *sched.App, task, slot, item int) sim.Time {
	if h.ic.Kind() == interconnect.Folded || len(a.Graph.Pred(task)) == 0 {
		return h.eng.Now()
	}
	r := h.slots[slot].rec
	if r.handoff == nil {
		r.handoff = map[[3]int]sim.Time{}
	}
	var ready sim.Time
	for _, p := range a.Graph.Pred(task) {
		key := [3]int{p, task, item}
		at, ok := r.handoff[key]
		if !ok {
			prod, have := r.prodAt[[2]int{p, item}]
			if !have {
				// Bulk mode: readiness was granted by whole-batch
				// completion; price the hand-off from the pred's last
				// known production of this item index. Fall back to
				// "already resident" if untracked.
				at = h.eng.Now()
			} else {
				at = h.ic.TransferDone(prod.at, prod.slot, slot)
			}
			r.handoff[key] = at
		}
		if at > ready {
			ready = at
		}
	}
	return ready
}
