package health

import (
	"fmt"

	"nimblock/internal/faults"
	"nimblock/internal/obs"
	"nimblock/internal/sim"
)

// Hooks are the front-end callbacks the monitor drives. All are
// mandatory except OnDegrade and OnFreeze (used only when the plan
// schedules those faults).
type Hooks struct {
	// Progress returns board b's monotonic event-progress counter — the
	// heartbeat signal liveness polls compare across intervals.
	Progress func(b int) uint64
	// Busy reports whether board b has outstanding work; idle boards
	// never miss heartbeats.
	Busy func(b int) bool
	// OnDead fires when board b is declared dead (crash fault or
	// liveness timeout): the front-end must fail its work over.
	OnDead func(b int)
	// OnFreeze fires when a board-hang fault freezes board b; the
	// front-end stops the board's event flow so liveness can notice.
	OnFreeze func(b int)
	// OnDegrade fires at both edges of a board-degrade window; factor
	// is the slowdown multiplier, or 1 when the window closes.
	OnDegrade func(b int, factor float64)
	// OnRevive fires when a crashed or hung board's scheduled recovery
	// arrives; the front-end rebuilds the backend. Placement is still
	// gated by the tracker's breaker backoff.
	OnRevive func(b int)
}

// Monitor owns the fleet's trackers, schedules board-level fault
// events, and polls liveness. One monitor serves one front-end run.
type Monitor struct {
	eng      *sim.Engine
	cfg      Config
	trackers []*Tracker
	hooks    Hooks
	armed    bool // liveness poll scheduled
	stats    Stats
	ins      *Instruments
	pollFn   func() // m.poll, bound once so arming the poll allocates nothing
}

// NewMonitor builds a monitor for n boards.
func NewMonitor(eng *sim.Engine, n int, cfg Config, hooks Hooks, ins *Instruments) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{eng: eng, cfg: cfg, hooks: hooks, ins: ins}
	m.pollFn = m.poll
	for b := 0; b < n; b++ {
		m.trackers = append(m.trackers, NewTracker(cfg, b))
	}
	return m
}

// Tracker returns board b's tracker.
func (m *Monitor) Tracker(b int) *Tracker { return m.trackers[b] }

// Stats returns the failover accounting so far.
func (m *Monitor) Stats() Stats { return m.stats }

// StatsRef exposes the accounting for front-end counters that the
// monitor does not observe itself (re-dispatches, migrations, hedges).
func (m *Monitor) StatsRef() *Stats { return &m.stats }

// Instruments returns the obs bundle (nil when no registry was given).
func (m *Monitor) Instruments() *Instruments { return m.ins }

// Schedule registers the plan's board-level events. Events aimed at
// boards outside the fleet are an error.
func (m *Monitor) Schedule(events []faults.BoardEvent) error {
	for _, ev := range events {
		if ev.Board < 0 || ev.Board >= len(m.trackers) {
			return fmt.Errorf("health: board event %v targets board %d of %d", ev.Kind, ev.Board, len(m.trackers))
		}
		switch ev.Kind {
		case faults.BoardCrash:
			m.eng.At(ev.At, func() { m.crash(ev.Board, ev.Recover) })
		case faults.BoardHang:
			m.eng.At(ev.At, func() { m.freeze(ev.Board, ev.Recover) })
		case faults.BoardDegrade:
			m.eng.At(ev.At, func() { m.degrade(ev.Board, ev.Factor) })
			if ev.Until != 0 {
				m.eng.At(ev.Until, func() { m.undegrade(ev.Board) })
			}
		default:
			return fmt.Errorf("health: %v is not a board event", ev.Kind)
		}
	}
	return nil
}

// crash declares the board dead immediately and schedules recovery.
func (m *Monitor) crash(b int, recover sim.Time) {
	t := m.trackers[b]
	if t.State() == Dead {
		return
	}
	m.declareDead(b)
	if recover != 0 {
		m.eng.At(recover, func() { m.revive(b) })
	}
}

// freeze hands the board to the front-end's freeze hook; death comes
// later, from missed heartbeats.
func (m *Monitor) freeze(b int, recover sim.Time) {
	if m.trackers[b].State() == Dead {
		return
	}
	m.stats.Freezes++
	if m.hooks.OnFreeze != nil {
		m.hooks.OnFreeze(b)
	}
	// The frozen board's counter stops here, so measure the next poll
	// from this instant: against an older sample, events emitted before
	// the freeze would read as progress, and a recovering board that
	// shows progress is not polled again.
	m.trackers[b].Baseline(m.hooks.Progress(b))
	m.Kick()
	if recover != 0 {
		m.eng.At(recover, func() { m.revive(b) })
	}
}

func (m *Monitor) degrade(b int, factor float64) {
	if m.trackers[b].State() == Dead {
		return
	}
	m.stats.Degrades++
	m.trackers[b].MarkDegraded()
	if m.hooks.OnDegrade != nil {
		m.hooks.OnDegrade(b, factor)
	}
}

func (m *Monitor) undegrade(b int) {
	m.trackers[b].ClearDegraded()
	if m.hooks.OnDegrade != nil {
		m.hooks.OnDegrade(b, 1)
	}
}

// declareDead moves the tracker to Dead and runs the failover hook.
func (m *Monitor) declareDead(b int) {
	m.trackers[b].MarkDead()
	m.stats.Deaths++
	if m.ins != nil {
		m.ins.Deaths.Inc()
	}
	m.hooks.OnDead(b)
}

// revive returns a dead board to Recovering and tells the front-end to
// rebuild it. A hung board whose scheduled recovery arrives before
// liveness declared it dead is declared dead here first — a frozen
// hypervisor cannot resume, so recovery always means evacuate+rebuild.
func (m *Monitor) revive(b int) {
	t := m.trackers[b]
	if t.State() != Dead {
		m.declareDead(b)
	}
	at := t.Revive(m.eng.Now())
	m.stats.Recoveries++
	if m.ins != nil {
		m.ins.Recoveries.Inc()
		m.ins.ReadmitDelay.Set(sim.Duration(at - m.eng.Now()).Seconds())
	}
	if m.hooks.OnRevive != nil {
		m.hooks.OnRevive(b)
	}
}

// Kick arms the liveness poll if it is not already running. Front-ends
// call it after dispatching work; the poll re-arms itself only while
// some board is busy, so an idle fleet stops generating events and the
// run can drain.
func (m *Monitor) Kick() {
	if m.armed {
		return
	}
	m.armed = true
	m.eng.After(m.cfg.LivenessInterval, m.pollFn)
}

// poll compares every board's progress counter against the previous
// interval, suspecting and then declaring frozen boards dead. A
// recovering board keeps the poll armed only once it stalls, so a
// rebuilt board that hangs during probation is still caught while a
// working one adds no polls.
func (m *Monitor) poll() {
	m.armed = false
	again := false
	for b, t := range m.trackers {
		st := t.State()
		if st == Dead {
			continue
		}
		busy := m.hooks.Busy(b)
		if t.NoteLiveness(m.hooks.Progress(b), busy) {
			m.stats.Deaths++
			if m.ins != nil {
				m.ins.Deaths.Inc()
			}
			m.hooks.OnDead(b)
			continue
		}
		if busy && (st != Recovering || t.Stalled()) || t.State() == Draining {
			again = true
		}
	}
	if again {
		m.Kick()
	}
}

// Stats is the fleet-level failover accounting shared by the cluster
// and serverless front-ends.
type Stats struct {
	// Deaths counts declared board deaths (crash faults and liveness
	// timeouts); Freezes and Degrades count those fault activations;
	// Recoveries counts boards revived into probation.
	Deaths, Freezes, Degrades, Recoveries int
	// Redispatched counts submissions moved off a dead board onto a
	// healthy one; MigratedItems counts checkpointed mid-flight items
	// whose snapshots travelled with them.
	Redispatched, MigratedItems int
	// FailedSubmissions counts work that exhausted its retry budget (or
	// stranded with no live board) and surfaced as a terminal failure.
	FailedSubmissions int
	// Hedged counts duplicated SLO-critical placements; HedgeCancelled
	// counts loser copies aborted after the winner retired.
	Hedged, HedgeCancelled int
	// WastedWork is fabric time lost to dead boards (work completed on
	// the old board minus what snapshots carried over); MigratedWork is
	// the progress the snapshots preserved.
	WastedWork, MigratedWork sim.Duration
}

// Instruments is the failover_* observability bundle.
type Instruments struct {
	Deaths        *obs.Counter
	Recoveries    *obs.Counter
	Redispatched  *obs.Counter
	MigratedItems *obs.Counter
	Failed        *obs.Counter
	Hedged        *obs.Counter
	HedgeWins     *obs.Counter
	WastedWork    *obs.Gauge
	MigratedWork  *obs.Gauge
	ReadmitDelay  *obs.Gauge
}

// NewInstruments registers the failover family on reg; nil reg yields
// nil instruments (every use site is nil-guarded).
func NewInstruments(reg *obs.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	return &Instruments{
		Deaths:        reg.Counter("failover_deaths_total", "Boards declared dead (crash faults and liveness timeouts)."),
		Recoveries:    reg.Counter("failover_recoveries_total", "Dead boards revived into circuit-breaker probation."),
		Redispatched:  reg.Counter("failover_redispatched_total", "Submissions re-dispatched off dead boards."),
		MigratedItems: reg.Counter("failover_migrated_items_total", "Checkpointed items migrated to a healthy board."),
		Failed:        reg.Counter("failover_failed_total", "Submissions failed permanently after exhausting retries."),
		Hedged:        reg.Counter("failover_hedged_total", "SLO-critical submissions placed on two boards."),
		HedgeWins:     reg.Counter("failover_hedge_cancelled_total", "Hedge loser copies cancelled after the winner retired."),
		WastedWork:    reg.Gauge("failover_wasted_work_seconds", "Fabric seconds lost to board deaths (net of migrated progress)."),
		MigratedWork:  reg.Gauge("failover_migrated_work_seconds", "Fabric seconds of progress preserved by checkpoint migration."),
		ReadmitDelay:  reg.Gauge("failover_readmit_delay_seconds", "Most recent circuit-breaker re-admission backoff."),
	}
}
