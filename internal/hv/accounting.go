package hv

// Accounting: per-application results, recovery and energy reports,
// utilization, and per-tenant service.

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// Result is the per-application outcome used by all experiments.
type Result struct {
	AppID    int64
	App      string
	Batch    int
	Priority int

	Arrival     sim.Time
	FirstLaunch sim.Time
	Retire      sim.Time

	// Response is retirement minus arrival — the paper's primary metric.
	Response sim.Duration
	// Run is the summed execution time of all items across all tasks.
	Run sim.Duration
	// Reconfig is the total partial-reconfiguration time spent for this
	// application (including re-configurations after preemption).
	Reconfig sim.Duration
	// Wait is the time from arrival until the first item starts.
	Wait sim.Duration

	Preemptions      int
	Reconfigurations int
}

// Throughput reports completed items per second of response time.
func (r Result) Throughput() float64 {
	if r.Response <= 0 {
		return 0
	}
	return float64(r.Batch) / r.Response.Seconds()
}

// SlotSample records the usable slot count at one instant. A run's
// timeline starts with one sample at construction and gains one each
// time a slot leaves service.
type SlotSample struct {
	At     sim.Time
	Usable int
}

// RecoveryStats aggregates fault-injection and recovery activity over a
// run (see Recovery).
type RecoveryStats struct {
	// FaultsInjected counts faults that fired: reconfiguration faults
	// from the board plus execution hangs and slowdowns.
	FaultsInjected int
	// Retries and Recovered mirror the board's reconfiguration retry
	// accounting: faulted attempts retried, and requests that
	// eventually succeeded after at least one retry.
	Retries   int
	Recovered int
	// WatchdogKills counts items killed for running past their deadline.
	WatchdogKills int
	// Quarantined counts slots removed by the fault-threshold policy.
	// SlotsOffline additionally includes permanent hardware failures.
	Quarantined  int
	SlotsOffline int
	// WastedWork is fabric time consumed by executions whose results
	// were lost — hung or killed items that re-execute from scratch.
	// With checkpointing enabled, only progress since the last
	// checkpoint is wasted; work up to the checkpoint is committed.
	WastedWork sim.Duration
	// ResumedItems counts items that resumed from a checkpoint instead
	// of re-executing from scratch (one per successful restore).
	ResumedItems int
	// CheckpointSaves counts completed state captures; CheckpointFaults
	// counts restores that found their snapshot lost or corrupt and fell
	// back to from-scratch re-execution.
	CheckpointSaves  int
	CheckpointFaults int
	// SavedWork is nominal work carried over by restores — fabric time
	// that would have been re-executed without checkpointing.
	SavedWork sim.Duration
	// CheckpointOverhead is wall time spent capturing and restoring
	// state through the CAP (never double-counted into WastedWork).
	CheckpointOverhead sim.Duration
	// Timeline tracks the effective board size over the run.
	Timeline []SlotSample
}

// Recovery reports the run's fault-injection and recovery statistics,
// merging the board's reconfiguration-side accounting with the
// hypervisor's execution-side counters.
func (h *Hypervisor) Recovery() RecoveryStats {
	out := h.rec
	bs := h.board.Stats()
	out.FaultsInjected += bs.Faults
	out.Retries = bs.Retries
	out.Recovered = bs.Recovered
	out.SlotsOffline = bs.Offline
	out.Timeline = append([]SlotSample(nil), h.rec.Timeline...)
	return out
}

// EnergyStats reports the power model evaluated over a run: static
// power integrates over usable slots (leakage burns whether or not
// logic runs; offline slots stop drawing), active power over occupied
// slots (reconfiguring or loaded). Computed post hoc from the board's
// occupancy integrals — energy never feeds back into scheduling
// decisions except through the explicit NimblockEnergy policy.
type EnergyStats struct {
	// StaticJoules and ActiveJoules split total energy by term.
	StaticJoules float64
	ActiveJoules float64
	// OccupiedSlotSeconds and UsableSlotSeconds expose the underlying
	// integrals (slot-seconds) for conservation checks.
	OccupiedSlotSeconds float64
	UsableSlotSeconds   float64
}

// TotalJoules is the run's total energy under the power model.
func (e EnergyStats) TotalJoules() float64 { return e.StaticJoules + e.ActiveJoules }

// Add sums two energy reports term by term (aggregating boards).
func (e EnergyStats) Add(o EnergyStats) EnergyStats {
	return EnergyStats{
		StaticJoules:        e.StaticJoules + o.StaticJoules,
		ActiveJoules:        e.ActiveJoules + o.ActiveJoules,
		OccupiedSlotSeconds: e.OccupiedSlotSeconds + o.OccupiedSlotSeconds,
		UsableSlotSeconds:   e.UsableSlotSeconds + o.UsableSlotSeconds,
	}
}

// Energy evaluates the board's power model at the current virtual time.
// With no power configured (the default) every term is zero.
func (h *Hypervisor) Energy() EnergyStats {
	occ := h.board.OccupiedSlotTime().Seconds()
	us := h.board.UsableSlotTime().Seconds()
	return EnergyStats{
		StaticJoules:        h.cfg.Board.StaticWattsPerSlot * us,
		ActiveJoules:        h.cfg.Board.ActiveWattsPerSlot * occ,
		OccupiedSlotSeconds: occ,
		UsableSlotSeconds:   us,
	}
}

// TenantServices returns a copy of the per-tenant service accounts for
// reports and fairness analysis.
func (h *Hypervisor) TenantServices() map[string]sim.Duration { return maps.Clone(h.tenantSvc) }

// addService accrues delivered compute time to the app's tenant; apps
// submitted without a tenant cost one string compare and nothing else.
func (h *Hypervisor) addService(a *sched.App, d sim.Duration) {
	if a.Tenant == "" || d <= 0 {
		return
	}
	h.tenantSvc[a.Tenant] += d
}

// Utilization reports the fraction of slot-time actually occupied
// (reconfiguration or compute) over the window [0, until]. Low
// utilization under the no-sharing baseline is the resource-efficiency
// argument that motivates fine-grained sharing in the first place.
func (h *Hypervisor) Utilization(until sim.Time) float64 {
	if until <= 0 || len(h.slotBusy) == 0 {
		return 0
	}
	var busy sim.Duration
	for _, b := range h.slotBusy {
		busy += b
	}
	return float64(busy) / (float64(until) * float64(len(h.slotBusy)))
}

func (h *Hypervisor) retire(a *sched.App) error {
	if err := a.Retire(); err != nil {
		return err
	}
	h.pending = without(h.pending, a)
	r := h.records[a.ID]
	res := &r.res
	res.Retire = h.eng.Now()
	res.Response = res.Retire.Sub(res.Arrival)
	res.Wait = res.FirstLaunch.Sub(res.Arrival)
	h.results = append(h.results, *res)
	// Any buffers still owned by the app would be leaks; reclaim and
	// surface them.
	if n := h.forget(a); n != 0 {
		return fmt.Errorf("hv: %s#%d retired with %d leaked buffers", a.Name, a.ID, n)
	}
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindRetire, App: a.Name, AppID: a.ID, Task: -1, Slot: -1, Item: -1})
	if h.cfg.OnRetire != nil {
		h.cfg.OnRetire(a.ID)
	}
	return nil
}

// Collect returns results after the engine has been driven externally
// (e.g. by a cluster coordinating several hypervisors on one engine).
// It fails if a mechanical error occurred or applications remain.
func (h *Hypervisor) Collect() ([]Result, error) {
	if h.err != nil {
		return nil, h.err
	}
	if len(h.results) != len(h.apps) {
		var stuck []string
		for _, a := range h.apps {
			if !a.Retired() {
				stuck = append(stuck, a.String())
			}
		}
		return nil, fmt.Errorf("hv: %d/%d applications unfinished at horizon %v under %s: %v",
			len(stuck), len(h.apps), h.cfg.Horizon, h.policy.Name(), stuck)
	}
	slices.SortFunc(h.results, func(x, y Result) int { return cmp.Compare(x.AppID, y.AppID) })
	return h.results, nil
}
