package hv

import "nimblock/internal/sched"

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
