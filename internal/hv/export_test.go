package hv

import (
	"fmt"
	"slices"

	"nimblock/internal/sched"
)

// UnretiredApps lists every submission the board still keeps a record
// for, arrived or still in transit, so tests can recompute board-wide
// estimates from the apps alone.
func (h *Hypervisor) UnretiredApps() []*sched.App {
	out := make([]*sched.App, 0, len(h.records))
	for _, r := range h.records {
		out = append(out, r.app)
	}
	return out
}

// Changes reports the board's count of World-visible changes, the
// counter the tick-skipping rule compares.
func (h *Hypervisor) Changes() uint64 { return h.changes }

// StrictSaves makes the board check every periodic save exactly, even
// before the stretch's fresh bound, count those saves in checked, and
// fail the run if one of them finds a new preemption point.
func (h *Hypervisor) StrictSaves(checked *int) { h.strictSaves = checked }

// LiveBuffers reports the board's count of allocated, unreleased
// output buffers.
func (h *Hypervisor) LiveBuffers() int { return h.bufLive }

// UsedBufferBytes reports the bytes those buffers hold.
func (h *Hypervisor) UsedBufferBytes() int64 { return h.bufUsed }

// ScanBuffers recomputes both counters from every record's ledger, the
// reference the board-wide counters are checked against.
func (h *Hypervisor) ScanBuffers() (live int, used int64) {
	for _, r := range h.records {
		for _, c := range r.refs {
			if c > 0 {
				live++
				used += h.cfg.BufferBytes
			}
		}
	}
	return live, used
}

// ScanHosts compares every record's hosting slots with a scan of the
// slots' occupants, the reference kickApp and Abort used to walk, and
// reports the first difference. Records an abort already forgot are
// covered through the slots their streams still hold.
func (h *Hypervisor) ScanHosts() error {
	scan := map[*appRecord][]int32{}
	for _, r := range h.records {
		scan[r] = nil
	}
	for s := range h.slots {
		rt := &h.slots[s]
		if rt.app == nil {
			continue
		}
		if rt.rec == nil || rt.rec.app != rt.app {
			return fmt.Errorf("slot %d holds %s without its record", s, rt.app)
		}
		scan[rt.rec] = append(scan[rt.rec], int32(s))
	}
	for r, want := range scan {
		var got []int32
		for s := r.hosts.next(-1); s >= 0; s = r.hosts.next(s) {
			got = append(got, int32(s))
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("%s lists hosting slots %v, the slots hold it in %v", r.app, got, want)
		}
	}
	return nil
}
