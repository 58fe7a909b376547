package obs

import (
	"strings"
	"sync"

	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// DefaultLatencyBuckets covers the paper's response-time range: from
// tens of milliseconds (one small task, no contention) to thousands of
// seconds (long batches queued behind a congested board).
var DefaultLatencyBuckets = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
}

// ReconfigBuckets covers partial-reconfiguration times: one slot image
// takes ~80 ms end to end on the default board; retries stretch that.
var ReconfigBuckets = []float64{0.02, 0.05, 0.08, 0.1, 0.15, 0.25, 0.5, 1, 2}

// StateXferBuckets covers checkpoint state transfers through the CAP:
// the default 1 MiB state streams in ~9 ms; queueing stretches that.
var StateXferBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}

// Metrics is a Sink that folds trace events into a Registry online:
// per-kind event counters, response/wait/reconfiguration latency
// histograms, and gauges for pending applications, effective (usable)
// slots, and CAP occupancy. The online results exactly match what the
// post-hoc analyzers (trace.Summarize, internal/metrics) compute from a
// recorded log of the same run — the metamorphic tests enforce it.
//
// Pairing state (arrival -> retire, reconfig start -> done) is keyed by
// application and slot IDs, which are unique within one hypervisor. To
// aggregate a parallel sweep, give each run its own Metrics sink sharing
// one Registry: instruments are shared and atomic, pairing stays local.
type Metrics struct {
	reg *Registry

	events       []*Counter // one per trace.Kind
	completed    *Counter
	resumed      *Counter
	pending      *Gauge
	effSlots     *Gauge
	capBusy      *Gauge
	ckptOverhead *Gauge
	savedWork    *Gauge
	energyStatic *Gauge
	energyActive *Gauge
	fairness     *Gauge
	response     *Histogram
	wait         *Histogram
	reconfig     *Histogram
	stateXfer    *Histogram

	mu          sync.Mutex
	arrival     map[int64]sim.Time // app -> arrival time
	launched    map[int64]bool     // app -> first item started
	reconfOpen  map[int]sim.Time   // slot -> reconfig start
	capBusyTime sim.Duration       // union of open reconfiguration windows
	lastAt      sim.Time           // latest event time seen
	slotsOff    int
	slots       int
}

// NewMetrics builds a metrics sink over the registry. slots is the
// board's initial slot count, seeding the effective-slots gauge; pass 0
// if unknown (the gauge then tracks only losses, from 0 downward).
func NewMetrics(reg *Registry, slots int) *Metrics {
	m := &Metrics{
		reg:        reg,
		arrival:    map[int64]sim.Time{},
		launched:   map[int64]bool{},
		reconfOpen: map[int]sim.Time{},
		slots:      slots,
	}
	for k := trace.Kind(0); int(k) < trace.NumKinds(); k++ {
		name := "nimblock_events_" + strings.ReplaceAll(k.String(), "-", "_") + "_total"
		m.events = append(m.events, reg.Counter(name, "trace events of kind "+k.String()))
	}
	m.completed = reg.Counter("nimblock_apps_completed_total", "applications retired")
	m.pending = reg.Gauge("nimblock_pending_apps", "applications arrived and not yet retired")
	m.effSlots = reg.Gauge("nimblock_effective_slots", "usable slot count (initial slots minus offline)")
	m.capBusy = reg.Gauge("nimblock_cap_busy_fraction", "fraction of virtual time the CAP spent reconfiguring")
	m.resumed = reg.Counter("nimblock_items_resumed_total", "items resumed from a checkpoint instead of re-executing")
	m.ckptOverhead = reg.Gauge("nimblock_checkpoint_overhead_seconds", "cumulative checkpoint save/restore transfer time")
	m.savedWork = reg.Gauge("nimblock_saved_work_seconds", "cumulative nominal work carried over by restores")
	m.energyStatic = reg.Gauge("nimblock_energy_static_joules", "cumulative static (leakage) energy over usable slot-time")
	m.energyActive = reg.Gauge("nimblock_energy_active_joules", "cumulative active energy over occupied slot-time")
	m.fairness = reg.Gauge("nimblock_fairness_jain_index", "Jain's fairness index over per-tenant weighted service (latest run)")
	m.response = reg.Histogram("nimblock_response_seconds", "application response time (retire - arrival)", DefaultLatencyBuckets)
	m.wait = reg.Histogram("nimblock_wait_seconds", "application wait time (first item start - arrival)", DefaultLatencyBuckets)
	m.reconfig = reg.Histogram("nimblock_reconfig_seconds", "per-request partial reconfiguration time on the CAP", ReconfigBuckets)
	m.stateXfer = reg.Histogram("nimblock_state_transfer_seconds", "per-transfer checkpoint state time on the CAP", StateXferBuckets)
	m.effSlots.Set(float64(slots))
	return m
}

// Registry returns the backing registry.
func (m *Metrics) Registry() *Registry { return m.reg }

// RecordEnergy folds one run's energy report into the registry. Energy
// is integrated by the board's power model, not derivable from the
// event stream (the stream carries no wattage), so harnesses publish it
// explicitly after each run; values accumulate across runs sharing the
// registry, like the event counters do.
func (m *Metrics) RecordEnergy(staticJoules, activeJoules float64) {
	m.energyStatic.Add(staticJoules)
	m.energyActive.Add(activeJoules)
}

// RecordFairness publishes Jain's fairness index over per-tenant
// weighted service for the latest run (a point-in-time quality signal,
// so the gauge is set, not accumulated).
func (m *Metrics) RecordFairness(jain float64) { m.fairness.Set(jain) }

// Observe implements Sink.
func (m *Metrics) Observe(e trace.Event) {
	if k := int(e.Kind); k >= 0 && k < len(m.events) {
		m.events[k].Inc()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.At > m.lastAt {
		// Reconfiguration windows include CAP queueing and may overlap
		// across slots; occupancy is the union, integrated eventwise
		// (state is constant between events in a discrete-event run).
		if len(m.reconfOpen) > 0 {
			m.capBusyTime += e.At.Sub(m.lastAt)
		}
		m.lastAt = e.At
	}
	switch e.Kind {
	case trace.KindArrival:
		m.arrival[e.AppID] = e.At
		m.pending.Add(1)
	case trace.KindItemStart:
		if !m.launched[e.AppID] {
			m.launched[e.AppID] = true
			if at, ok := m.arrival[e.AppID]; ok {
				m.wait.Observe(e.At.Sub(at).Seconds())
			}
		}
	case trace.KindRetire:
		if at, ok := m.arrival[e.AppID]; ok {
			m.response.Observe(e.At.Sub(at).Seconds())
			delete(m.arrival, e.AppID)
			delete(m.launched, e.AppID)
		}
		m.completed.Inc()
		m.pending.Add(-1)
	case trace.KindReconfigStart:
		m.reconfOpen[e.Slot] = e.At
	case trace.KindReconfigDone, trace.KindFault:
		// Both outcomes release the CAP; a fault still occupied it for
		// the (possibly retried) attempt window.
		if from, ok := m.reconfOpen[e.Slot]; ok {
			delete(m.reconfOpen, e.Slot)
			m.reconfig.Observe(e.At.Sub(from).Seconds())
		}
	case trace.KindSlotOffline:
		m.slotsOff++
		m.effSlots.Set(float64(m.slots - m.slotsOff))
	case trace.KindCheckpointSave, trace.KindCheckpoint, trace.KindCheckpointFault:
		// A zero Dur means no transfer happened (an on-demand preemption
		// with no new point passed, or a snapshot lost before streaming).
		if e.Dur > 0 {
			m.stateXfer.Observe(e.Dur.Seconds())
			m.ckptOverhead.Add(e.Dur.Seconds())
		}
	case trace.KindRestore:
		m.stateXfer.Observe(e.Dur.Seconds())
		m.ckptOverhead.Add(e.Dur.Seconds())
		m.savedWork.Add(e.Progress.Seconds())
		m.resumed.Inc()
	}
	if m.lastAt > 0 {
		m.capBusy.Set(float64(m.capBusyTime) / float64(m.lastAt))
	}
}
