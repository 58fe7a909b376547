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
