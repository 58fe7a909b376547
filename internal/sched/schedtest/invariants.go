package schedtest

import (
	"fmt"
	"math"
	"sync"

	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// DefaultMinReconfigGap is the minimum spacing between reconfiguration
// completions on the default board: one slot image takes ~80 ms end to
// end, so completions closer than this betray a CAP that stopped
// serializing.
const DefaultMinReconfigGap = 70 * sim.Millisecond

// maxViolations bounds how many violations a Checker retains; a broken
// scheduler produces them by the thousand and the first few tell the story.
const maxViolations = 20

// Checker is a streaming scheduler-invariant checker. It consumes trace
// events one at a time — implementing the obs.Sink shape — so the same
// checker validates recorded logs (trace.Log.Replay) and live runs (attach it as
// hv.Config.Observer). It verifies the structural properties every
// policy and workload must honour:
//
//  1. CAP serialization: the board has one configuration port, so
//     reconfiguration completions are spaced by at least MinReconfigGap.
//  2. Slot exclusivity: a slot hosts at most one activity at a time
//     (reconfiguring or one in-flight item), items run only on
//     configured slots, and offline slots are never used again.
//  3. Item conservation: every (app, task, item) that finishes finished
//     exactly once, and every start is matched by a finish or an
//     explicit abort (checkpoint, watchdog kill, slot failure).
//  4. Batch-boundary preemption: KindPreempt never lands mid-item.
//  5. Causality: retire follows arrival; nothing happens to an
//     application before it arrives.
//  6. Checkpoint consistency: snapshots capture strictly increasing
//     progress per item, an item restores only from a state that was
//     actually checkpointed and never resumes more work than was saved,
//     and checkpoint state transfers share the serialized CAP
//     (successive transfer completions are spaced by MinStateXferGap).
//  7. Energy conservation (CheckEnergy): the checker independently
//     integrates occupied (reconfiguring or loaded) and offline slot
//     counts over the event stream; reported joules must equal static
//     power x usable-slot integral + active power x occupied-slot
//     integral.
//
// Checker is safe for concurrent use; the simulation itself is
// single-threaded per engine, but one checker may watch several engines
// (the parallel harness) at the cost of interleaving slot state, so for
// strict checking attach one checker per run.
type Checker struct {
	// MinReconfigGap overrides the CAP serialization spacing; zero
	// disables the check (heterogeneous boards have different stream
	// times). Set before the first event.
	MinReconfigGap sim.Duration
	// MinStateXferGap is the minimum spacing between checkpoint state
	// transfer completions (saves, restores, corrupt restores): the CAP
	// streams one state image at a time, so with a uniform state size
	// completions can never be closer than one stream time. Zero (the
	// default) disables the check — state sizes vary per task in the
	// general case.
	MinStateXferGap sim.Duration

	mu         sync.Mutex
	slots      map[int]*slotState
	started    map[itemKey]int
	finished   map[itemKey]int
	aborted    map[itemKey]int
	snapshots  map[itemKey]sim.Duration
	arrived    map[int64]sim.Time
	retired    map[int64]sim.Time
	lastDone   sim.Time
	seenDone   bool
	lastXfer   sim.Time
	seenXfer   bool
	events     int
	violations []string

	// Occupancy integrals for the energy-conservation check: occInt is
	// the integral over time of occupied slots (reconfiguring or
	// loaded), offInt of offline slots; both accrue lazily at every
	// event that changes a slot's state.
	occCount int
	offCount int
	occLast  sim.Time
	occInt   sim.Duration
	offInt   sim.Duration
}

type slotState struct {
	reconfiguring bool
	loaded        bool
	itemOpen      bool
	openItem      itemKey
	offline       bool
	app           int64 // occupant since the last reconfiguration start
	// abandoned marks a stream whose application was abandoned
	// mid-reconfiguration: the board drops its completion silently, so
	// the next reconfiguration start on the slot ends it.
	abandoned bool
}

type itemKey struct {
	app        int64
	task, item int
}

// NewChecker returns a checker with the default CAP gap.
func NewChecker() *Checker {
	return &Checker{
		MinReconfigGap: DefaultMinReconfigGap,
		slots:          map[int]*slotState{},
		started:        map[itemKey]int{},
		finished:       map[itemKey]int{},
		aborted:        map[itemKey]int{},
		snapshots:      map[itemKey]sim.Duration{},
		arrived:        map[int64]sim.Time{},
		retired:        map[int64]sim.Time{},
	}
}

func (c *Checker) violatef(format string, args ...any) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

func (c *Checker) slot(s int) *slotState {
	st, ok := c.slots[s]
	if !ok {
		st = &slotState{}
		c.slots[s] = st
	}
	return st
}

// Observe implements the obs.Sink shape: it advances the per-slot state
// machines and records violations instead of failing, so it can run
// inside a live simulation.
func (c *Checker) Observe(e trace.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++
	var st *slotState
	var preOcc, preOff bool
	if e.Slot >= 0 {
		st = c.slot(e.Slot)
		preOcc = st.reconfiguring || st.loaded
		preOff = st.offline
	}
	c.observeLocked(e)
	if st == nil {
		return
	}
	postOcc := st.reconfiguring || st.loaded
	postOff := st.offline
	if postOcc == preOcc && postOff == preOff {
		return
	}
	// Integrate with the old counts up to this instant, then step them:
	// the occupancy integrals stay exact under int64 arithmetic, so the
	// energy check can demand equality rather than closeness.
	c.accrueOcc(e.At)
	if postOcc != preOcc {
		if postOcc {
			c.occCount++
		} else {
			c.occCount--
		}
	}
	if postOff != preOff {
		if postOff {
			c.offCount++
		} else {
			c.offCount--
		}
	}
}

func (c *Checker) observeLocked(e trace.Event) {
	switch e.Kind {
	case trace.KindArrival:
		c.arrived[e.AppID] = e.At
	case trace.KindRetire:
		if _, ok := c.arrived[e.AppID]; !ok {
			c.violatef("retire before arrival: %v", e)
		} else if e.At < c.arrived[e.AppID] {
			c.violatef("retire at %v precedes arrival at %v: %v", e.At, c.arrived[e.AppID], e)
		}
		c.retired[e.AppID] = e.At
	case trace.KindReconfigStart:
		s := c.slot(e.Slot)
		if s.abandoned {
			s.reconfiguring, s.abandoned = false, false
		}
		s.app = e.AppID
		if s.offline {
			c.violatef("reconfig start on offline slot: %v", e)
		}
		if s.reconfiguring || s.loaded || s.itemOpen {
			c.violatef("reconfig start on busy slot: %v", e)
		}
		s.reconfiguring = true
	case trace.KindReconfigDone:
		s := c.slot(e.Slot)
		if !s.reconfiguring {
			c.violatef("reconfig done without start: %v", e)
		}
		s.reconfiguring = false
		s.loaded = true
		if gap := c.MinReconfigGap; gap > 0 && c.seenDone && e.At.Sub(c.lastDone) < gap {
			c.violatef("reconfigurations completed %v apart (< %v): CAP not serialized: %v", e.At.Sub(c.lastDone), gap, e)
		}
		c.lastDone, c.seenDone = e.At, true
	case trace.KindRetry:
		if s := c.slot(e.Slot); !s.reconfiguring {
			c.violatef("retry on slot not reconfiguring: %v", e)
		}
	case trace.KindFault:
		s := c.slot(e.Slot)
		if !s.reconfiguring {
			c.violatef("fault on slot not reconfiguring: %v", e)
		}
		s.reconfiguring = false
	case trace.KindItemStart:
		s := c.slot(e.Slot)
		if s.offline {
			c.violatef("item start on offline slot: %v", e)
		}
		if !s.loaded {
			c.violatef("item start on unconfigured slot: %v", e)
		}
		if s.itemOpen {
			c.violatef("two items in flight on slot %d: %v", e.Slot, e)
		}
		if _, ok := c.arrived[e.AppID]; !ok {
			c.violatef("item start before arrival: %v", e)
		}
		s.itemOpen = true
		s.openItem = itemKey{e.AppID, e.Task, e.Item}
		c.started[s.openItem]++
	case trace.KindItemDone:
		s := c.slot(e.Slot)
		if !s.itemOpen {
			c.violatef("item done without start: %v", e)
		} else if (itemKey{e.AppID, e.Task, e.Item}) != s.openItem {
			c.violatef("item done %v does not match open item %+v", e, s.openItem)
		}
		s.itemOpen = false
		c.finished[itemKey{e.AppID, e.Task, e.Item}]++
		delete(c.snapshots, itemKey{e.AppID, e.Task, e.Item})
	case trace.KindTaskDone:
		s := c.slot(e.Slot)
		if s.itemOpen {
			c.violatef("task done with item in flight: %v", e)
		}
		s.loaded = false
	case trace.KindPreemptRequest:
		if s := c.slot(e.Slot); !s.loaded && !s.reconfiguring {
			c.violatef("preempt request on empty slot: %v", e)
		}
	case trace.KindPreempt:
		s := c.slot(e.Slot)
		if s.itemOpen {
			c.violatef("preemption mid-item (not at a batch boundary): %v", e)
		}
		if !s.loaded {
			c.violatef("preemption of unloaded slot: %v", e)
		}
		s.loaded = false
	case trace.KindCheckpoint:
		// Mid-item preemption with state capture (the checkpoint
		// subsystem's on-demand path): the in-flight item is aborted and
		// resumes later.
		s := c.slot(e.Slot)
		if !s.itemOpen {
			c.violatef("checkpoint with no item in flight: %v", e)
		} else {
			c.aborted[s.openItem]++
		}
		if e.Progress > 0 {
			k := itemKey{e.AppID, e.Task, e.Item}
			if prev, ok := c.snapshots[k]; ok && e.Progress < prev {
				c.violatef("checkpoint progress regressed from %v: %v", prev, e)
			}
			c.snapshots[k] = e.Progress
		}
		c.observeXfer(e)
		s.itemOpen = false
		s.loaded = false
	case trace.KindCheckpointSave:
		// Periodic save: the state streams out through the CAP while the
		// item stays in flight; each snapshot must capture strictly more
		// progress than the last.
		s := c.slot(e.Slot)
		k := itemKey{e.AppID, e.Task, e.Item}
		if !s.itemOpen || s.openItem != k {
			c.violatef("checkpoint save for an item not in flight: %v", e)
		}
		if e.Progress <= 0 {
			c.violatef("checkpoint save captured no progress: %v", e)
		}
		if prev, ok := c.snapshots[k]; ok && e.Progress <= prev {
			c.violatef("checkpoint save progress %v not beyond last snapshot %v: %v", e.Progress, prev, e)
		}
		c.snapshots[k] = e.Progress
		c.observeXfer(e)
	case trace.KindRestore:
		// Resume-from-checkpoint: only a state that was actually saved can
		// stream back, and never with more progress than was captured.
		s := c.slot(e.Slot)
		k := itemKey{e.AppID, e.Task, e.Item}
		if !s.itemOpen || s.openItem != k {
			c.violatef("restore for an item not in flight: %v", e)
		}
		prev, ok := c.snapshots[k]
		if !ok {
			c.violatef("restore without a prior checkpoint: %v", e)
		} else if e.Progress > prev {
			c.violatef("restore resumed %v, more than the %v saved: %v", e.Progress, prev, e)
		}
		if e.Progress <= 0 {
			c.violatef("restore resumed no progress: %v", e)
		}
		c.observeXfer(e)
	case trace.KindCheckpointFault:
		// A lost or corrupt snapshot discovered at restore time: it must
		// have existed, and it is unusable afterwards.
		k := itemKey{e.AppID, e.Task, e.Item}
		if _, ok := c.snapshots[k]; !ok {
			c.violatef("checkpoint fault without a prior checkpoint: %v", e)
		}
		delete(c.snapshots, k)
		c.observeXfer(e)
	case trace.KindWatchdog:
		s := c.slot(e.Slot)
		if !s.itemOpen {
			c.violatef("watchdog kill with no item in flight: %v", e)
		} else {
			c.aborted[s.openItem]++
		}
		s.itemOpen = false
		s.loaded = false
	case trace.KindQuarantine:
		if s := c.slot(e.Slot); s.itemOpen {
			c.violatef("quarantine with item in flight: %v", e)
		}
	case trace.KindSlotOffline:
		// Permanent failure or quarantine. A running occupant is killed
		// without its own event; account its open item as aborted.
		s := c.slot(e.Slot)
		if s.itemOpen {
			c.aborted[s.openItem]++
		}
		*s = slotState{offline: true}
	}
}

// Abandon forgets an application that left the board without trace
// events: a hedge copy cancelled by hv.Abort, or a submission handed
// back by hv.Evacuate. Its open items count as aborted, the slots it
// loaded are free again, and it no longer counts toward the
// arrival/retire balance Finish checks. A slot it was still
// reconfiguring keeps streaming (retries may follow) until the next
// reconfiguration start on it; CheckEnergy does not hold across that
// span, since the checker cannot see when the stream ended.
func (c *Checker) Abandon(appID int64, at sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accrueOcc(at)
	for _, s := range c.slots {
		if s.app != appID || s.offline {
			continue
		}
		if s.itemOpen {
			c.aborted[s.openItem]++
			s.itemOpen = false
		}
		if s.loaded {
			s.loaded = false
			c.occCount--
		}
		if s.reconfiguring {
			s.abandoned = true
		}
	}
	delete(c.arrived, appID)
}

// Seed registers a snapshot migrated in from another board
// (hv.SeedCheckpoints), so a restore from it is checked against the
// progress it captured like any snapshot saved on this board.
func (c *Checker) Seed(appID int64, task, item int, progress sim.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapshots[itemKey{appID, task, item}] = progress
}

// observeXfer applies the CAP serialization spacing to checkpoint state
// transfers: events carrying a transfer duration complete one stream at
// a time, so with MinStateXferGap set (uniform state size) completions
// can never be closer than one stream time.
func (c *Checker) observeXfer(e trace.Event) {
	if e.Dur <= 0 {
		return
	}
	if gap := c.MinStateXferGap; gap > 0 && c.seenXfer && e.At.Sub(c.lastXfer) < gap {
		c.violatef("state transfers completed %v apart (< %v): CAP not serialized: %v", e.At.Sub(c.lastXfer), gap, e)
	}
	c.lastXfer, c.seenXfer = e.At, true
}

// accrueOcc folds elapsed time into the occupancy integrals.
func (c *Checker) accrueOcc(at sim.Time) {
	if d := at.Sub(c.occLast); d > 0 {
		c.occInt += d * sim.Duration(c.occCount)
		c.offInt += d * sim.Duration(c.offCount)
	}
	c.occLast = at
}

// OccupiedSlotTime reports the checker's independently integrated
// occupied-slot time, accrued to the given instant.
func (c *Checker) OccupiedSlotTime(until sim.Time) sim.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accrueOcc(until)
	return c.occInt
}

// CheckEnergy is the energy-conservation invariant: for a board with
// the given slot count and per-slot static and active power, the
// reported total joules over [0, until] must match static power x
// usable-slot integral + active power x occupied-slot integral, both
// integrals reconstructed from the event stream alone. The integrals
// are exact on both sides; the tolerance only absorbs the final
// float64 joule conversion.
func (c *Checker) CheckEnergy(slots int, staticW, activeW float64, until sim.Time, gotJoules float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accrueOcc(until)
	usable := sim.Duration(until)*sim.Duration(slots) - c.offInt
	want := staticW*usable.Seconds() + activeW*c.occInt.Seconds()
	tol := 1e-9 * math.Max(1, math.Max(math.Abs(want), math.Abs(gotJoules)))
	if math.Abs(want-gotJoules) > tol {
		return fmt.Errorf("schedtest: energy not conserved: reported %v J, trace implies %v J (usable %v slot-time, occupied %v slot-time over %v)",
			gotJoules, want, usable, c.occInt, until)
	}
	return nil
}

// Events reports the number of events observed.
func (c *Checker) Events() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// Violations returns the violations recorded so far (capped).
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

// Err returns nil when no invariant has been violated so far, or an
// error describing the first violations.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errLocked()
}

func (c *Checker) errLocked() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("schedtest: %d invariant violation(s), first: %s", len(c.violations), c.violations[0])
}

// Finish runs the end-of-run checks for a completed simulation: item
// conservation (every start matched by exactly one finish or an abort,
// every finish unique), and arrival/retire bookkeeping against the
// expected number of retired applications. It returns the combined
// verdict including any streaming violations.
func (c *Checker) Finish(results int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, n := range c.finished {
		if n != 1 {
			c.violatef("item %+v finished %d times", k, n)
		}
		if c.started[k] == 0 {
			c.violatef("item %+v finished without start", k)
		}
	}
	for k, n := range c.started {
		if want := c.finished[k] + c.aborted[k]; n != want {
			c.violatef("item %+v started %d times, finished %d + aborted %d", k, n, c.finished[k], c.aborted[k])
		}
	}
	if len(c.arrived) != results || len(c.retired) != results {
		c.violatef("%d arrivals, %d retires, %d results", len(c.arrived), len(c.retired), results)
	}
	for id, at := range c.retired {
		if at < c.arrived[id] {
			c.violatef("app %d retired (%v) before arrival (%v)", id, at, c.arrived[id])
		}
	}
	return c.errLocked()
}

// CheckTokenInvariants verifies the PREMA token-pool properties on a set
// of pending applications immediately after sched.AccrueTokens:
//
//   - non-negativity: no application ever holds negative tokens;
//   - threshold consistency: with threshold defined as the maximum token
//     count floored to a priority level, exactly the applications at or
//     above the threshold are marked candidates;
//   - the candidate pool is never empty while applications wait.
func CheckTokenInvariants(apps []*sched.App) error {
	if len(apps) == 0 {
		return nil
	}
	threshold := 0.0
	for _, a := range apps {
		if a.Tokens < 0 {
			return fmt.Errorf("schedtest: app %d holds negative tokens %v", a.ID, a.Tokens)
		}
		if math.IsNaN(a.Tokens) || math.IsInf(a.Tokens, 0) {
			return fmt.Errorf("schedtest: app %d holds non-finite tokens %v", a.ID, a.Tokens)
		}
		if f := floorPriority(a.Tokens); f > threshold {
			threshold = f
		}
	}
	candidates := 0
	for _, a := range apps {
		want := a.Tokens >= threshold
		if a.Candidate != want {
			return fmt.Errorf("schedtest: app %d candidate=%v, want %v (tokens %v, threshold %v)",
				a.ID, a.Candidate, want, a.Tokens, threshold)
		}
		if a.Candidate {
			candidates++
		}
	}
	if candidates == 0 {
		return fmt.Errorf("schedtest: empty candidate pool with %d waiting applications", len(apps))
	}
	return nil
}

// floorPriority mirrors the unexported sched helper: tokens rounded down
// to the nearest priority level, zero below the lowest.
func floorPriority(tokens float64) float64 {
	out := 0.0
	for _, l := range sched.PriorityLevels {
		if tokens >= float64(l) {
			out = float64(l)
		}
	}
	return out
}
