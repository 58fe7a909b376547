package fpga

import (
	"fmt"
	"math"

	"nimblock/internal/sim"
)

// SlotState is the electrical state of a reconfigurable slot.
type SlotState int

const (
	// SlotFree means no user logic is configured (or it has been
	// decoupled and released).
	SlotFree SlotState = iota
	// SlotReconfiguring means the CAP is streaming a partial bitstream
	// into this region; decoupling isolates it from the interconnect.
	SlotReconfiguring
	// SlotLoaded means user logic is configured and attached to the
	// memory-mapped control and data interfaces.
	SlotLoaded
	// SlotOffline means the region has permanently left service — a
	// fatal hardware fault or a hypervisor quarantine. It is never free
	// and never schedulable again.
	SlotOffline
)

// String names the state for traces.
func (s SlotState) String() string {
	switch s {
	case SlotFree:
		return "free"
	case SlotReconfiguring:
		return "reconfiguring"
	case SlotLoaded:
		return "loaded"
	case SlotOffline:
		return "offline"
	default:
		return fmt.Sprintf("SlotState(%d)", int(s))
	}
}

// Slot is one reconfigurable region.
type Slot struct {
	ID    int
	State SlotState
}

// Config sets the physical parameters of the simulated board.
type Config struct {
	// Slots is the number of reconfigurable regions (paper: 10).
	Slots int
	// CAPBytesPerSec is the configuration port bandwidth. The default
	// writes one slot image (ImageBytes) in ~64 ms, ~80 ms with the SD
	// load.
	CAPBytesPerSec float64
	// SDBytesPerSec is the SD-card read bandwidth for loading bitstreams
	// into DDR before configuration. The ARM core performs the load and
	// the CAP write back-to-back, so both serialize on the single
	// reconfiguration pipeline.
	SDBytesPerSec float64
	// NewInjector, when non-nil, constructs the fault injector for this
	// board instance — the board's only fault source; fault plans live in
	// internal/faults. A factory (rather than an instance) keeps replayed
	// runs independent: every board gets a fresh, identically seeded
	// injector.
	NewInjector func() Injector
	// MaxRetries bounds reconfiguration retries before reporting an
	// error (0 means a single attempt). Retry n waits 5 ms << (n-1),
	// capped at 80 ms, before re-streaming.
	MaxRetries int
	// OnRetry, when non-nil, is invoked for every injected transient
	// fault the board is about to retry, before the retry is streamed —
	// the hypervisor uses it to trace retries.
	OnRetry func(slot int)
	// LatencyScale stretches (>1, a slower fabric) or shrinks (<1, a
	// faster one) every task's compute latency on this board relative to
	// the reference platform. Zero means 1 (the homogeneous default).
	LatencyScale float64
	// StaticWattsPerSlot is the leakage + clock-tree power one usable
	// slot draws whether or not logic is configured. Zero disables
	// energy accounting for the static term.
	StaticWattsPerSlot float64
	// ActiveWattsPerSlot is the additional dynamic power a slot draws
	// while occupied (reconfiguring or loaded). Zero disables the
	// active term.
	ActiveWattsPerSlot float64
}

// ImageBytes is the size of one partial bitstream: a slot region's
// configuration frames plus a 4 KiB header. Slots are uniform, so every
// (task, slot) image has this size and only the total reconfiguration
// latency is architecturally visible.
const ImageBytes = 7_500_000 + 4096

// ReconfigTime is how long one configuration takes end to end, excluding
// queueing: the ARM core loads the image from the SD card into DDR, then
// streams it through the CAP. It is the one place the reconfiguration
// cost is computed.
func (c Config) ReconfigTime() sim.Duration {
	return sim.Seconds(ImageBytes/c.SDBytesPerSec) + sim.Seconds(ImageBytes/c.CAPBytesPerSec)
}

// DefaultConfig reproduces the evaluation platform: 10 slots and ~80 ms
// partial reconfiguration (SD load ~16 ms + CAP write ~64 ms).
func DefaultConfig() Config {
	return Config{
		Slots:          10,
		CAPBytesPerSec: 117.3e6, // ~64 ms for a slot image
		SDBytesPerSec:  469.0e6, // ~16 ms for a slot image
		MaxRetries:     3,
	}
}

// Stats aggregates board-level counters.
type Stats struct {
	Reconfigurations int
	ReconfigTime     sim.Duration
	Faults           int
	// Retries counts faulted attempts that were streamed again.
	Retries int
	// Recovered counts faults absorbed by retrying: every fault on a
	// request that eventually configured successfully.
	Recovered int
	// Offline counts slots permanently removed from service.
	Offline  int
	Releases int
	// StateTransfers counts checkpoint save/restore transfers completed
	// through the CAP; StateTransferTime is their total streaming time
	// (kept apart from ReconfigTime so CAP utilization can be split).
	StateTransfers    int
	StateTransferTime sim.Duration
}

// SlotStats aggregates per-slot health counters; the hypervisor's
// quarantine policy keys off Faults.
type SlotStats struct {
	Reconfigurations int
	Faults           int
	Retries          int
}

// reconfigRequest is one queued CAP operation: a reconfiguration
// (xferBytes == 0) or a checkpoint state transfer (xferBytes > 0).
type reconfigRequest struct {
	slot      int
	onDone    func(error)
	tries     int
	xferBytes int64
}

// Board is the simulated FPGA. It is driven entirely by the simulation
// engine: Reconfigure enqueues work on the single CAP, and completion is
// delivered by callback in virtual time.
type Board struct {
	eng         *sim.Engine
	cfg         Config
	slots       []*Slot
	queue       []reconfigRequest
	busy        bool
	inj         Injector
	stats       Stats
	slotStats   []SlotStats
	failPending []bool // permanent failure arrived while reconfiguring
	freeScratch []int  // reused by FreeSlots

	// The in-flight CAP stream: its request, the outcome drawn for the
	// current attempt, and the time charged to it. completeFn is bound
	// once in NewBoard, so streaming allocates nothing.
	cur        reconfigRequest
	curOut     ReconfigOutcome
	curDur     sim.Duration
	completeFn func()

	// Energy accounting: piecewise-constant integrals of the occupied
	// (reconfiguring or loaded) and usable (not offline) slot counts over
	// virtual time, accrued lazily at every state transition. Pure
	// counter arithmetic — no allocation, no per-event cost when the
	// power model is unconfigured.
	occupied       int
	usable         int
	lastAcc        sim.Time
	occSlotTime    sim.Duration
	usableSlotTime sim.Duration
}

// NewBoard programs the static region and returns a board with all slots
// free.
func NewBoard(eng *sim.Engine, cfg Config) (*Board, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("fpga: board needs at least one slot, got %d", cfg.Slots)
	}
	if cfg.CAPBytesPerSec <= 0 {
		return nil, fmt.Errorf("fpga: CAP bandwidth must be positive")
	}
	if cfg.SDBytesPerSec <= 0 {
		return nil, fmt.Errorf("fpga: SD bandwidth must be positive")
	}
	if cfg.LatencyScale < 0 || math.IsNaN(cfg.LatencyScale) || math.IsInf(cfg.LatencyScale, 0) {
		return nil, fmt.Errorf("fpga: latency scale %v must be positive and finite (or zero for the default)", cfg.LatencyScale)
	}
	if cfg.StaticWattsPerSlot < 0 || math.IsNaN(cfg.StaticWattsPerSlot) || math.IsInf(cfg.StaticWattsPerSlot, 0) {
		return nil, fmt.Errorf("fpga: static power %v watts/slot must be non-negative and finite", cfg.StaticWattsPerSlot)
	}
	if cfg.ActiveWattsPerSlot < 0 || math.IsNaN(cfg.ActiveWattsPerSlot) || math.IsInf(cfg.ActiveWattsPerSlot, 0) {
		return nil, fmt.Errorf("fpga: active power %v watts/slot must be non-negative and finite", cfg.ActiveWattsPerSlot)
	}
	b := &Board{
		eng:         eng,
		cfg:         cfg,
		slotStats:   make([]SlotStats, cfg.Slots),
		failPending: make([]bool, cfg.Slots),
		usable:      cfg.Slots,
		lastAcc:     eng.Now(),
	}
	if cfg.NewInjector != nil {
		b.inj = cfg.NewInjector()
	}
	for i := 0; i < cfg.Slots; i++ {
		b.slots = append(b.slots, &Slot{ID: i})
	}
	b.completeFn = b.complete
	return b, nil
}

// Injector returns the active fault injector, or nil on a healthy board.
func (b *Board) Injector() Injector { return b.inj }

// accrue folds the time since the last slot-count change into the
// occupied- and usable-slot integrals. It must run immediately before
// every transition that changes either count.
func (b *Board) accrue() {
	now := b.eng.Now()
	if d := now.Sub(b.lastAcc); d > 0 {
		b.occSlotTime += d * sim.Duration(b.occupied)
		b.usableSlotTime += d * sim.Duration(b.usable)
	}
	b.lastAcc = now
}

// OccupiedSlotTime is the integral over virtual time of the number of
// occupied (reconfiguring or loaded) slots — the active-power term of
// the energy model — accrued up to the engine's current time.
func (b *Board) OccupiedSlotTime() sim.Duration {
	b.accrue()
	return b.occSlotTime
}

// UsableSlotTime is the integral over virtual time of the number of
// slots still in service — the static-power term of the energy model —
// accrued up to the engine's current time.
func (b *Board) UsableSlotTime() sim.Duration {
	b.accrue()
	return b.usableSlotTime
}

// LatencyScale resolves the configured task-latency scale factor (1 for
// the zero default).
func (b *Board) LatencyScale() float64 {
	if b.cfg.LatencyScale == 0 {
		return 1
	}
	return b.cfg.LatencyScale
}

// Energy evaluates the power model at the engine's current time:
// static watts per usable slot plus active watts per occupied slot,
// integrated over the run so far. Returns total joules.
func (b *Board) Energy() float64 {
	b.accrue()
	return b.cfg.StaticWattsPerSlot*b.usableSlotTime.Seconds() +
		b.cfg.ActiveWattsPerSlot*b.occSlotTime.Seconds()
}

// NumSlots reports the number of reconfigurable regions.
func (b *Board) NumSlots() int { return len(b.slots) }

// Slot returns a view of slot i. Callers must not mutate it.
func (b *Board) Slot(i int) *Slot { return b.slots[i] }

// CAPBusy reports whether a reconfiguration is currently streaming.
func (b *Board) CAPBusy() bool { return b.busy }

// Stats returns a copy of the board counters.
func (b *Board) Stats() Stats { return b.stats }

// SlotStats returns a copy of slot i's health counters.
func (b *Board) SlotStats(i int) SlotStats { return b.slotStats[i] }

// Reconfigure requests that a task's partial bitstream be configured
// into the slot. The slot must be free; it transitions to
// SlotReconfiguring immediately (the region is decoupled) and to
// SlotLoaded when the CAP finishes, at which point onDone is invoked.
// Requests are served strictly in order — only one region can be
// configured at a time on a single device.
func (b *Board) Reconfigure(slot int, onDone func(error)) error {
	if slot < 0 || slot >= len(b.slots) {
		return fmt.Errorf("fpga: slot %d out of range [0,%d)", slot, len(b.slots))
	}
	s := b.slots[slot]
	if s.State != SlotFree {
		return fmt.Errorf("fpga: slot %d is %v, cannot reconfigure", slot, s.State)
	}
	b.accrue()
	b.occupied++
	s.State = SlotReconfiguring
	b.queue = append(b.queue, reconfigRequest{slot: slot, onDone: onDone})
	b.pump()
	return nil
}

// StateTransferTime reports how long moving bytes of slot state through
// the configuration port takes. State capture and restore go through the
// same CAP as partial bitstreams (Rodriguez-Canal et al.), so the cost
// is size-proportional at CAP bandwidth.
func (b *Board) StateTransferTime(bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Seconds(float64(bytes) / b.cfg.CAPBytesPerSec)
}

// TransferState enqueues a checkpoint state save or restore for a loaded
// slot on the single CAP pipeline — it serializes with reconfigurations
// and other transfers, preserving the one-port constraint. The slot
// state is unchanged (user logic stays configured); onDone fires when
// the stream completes. Transfers never fault at the board level:
// checkpoint integrity is the hypervisor's concern at restore time.
func (b *Board) TransferState(slot int, bytes int64, onDone func(error)) error {
	if slot < 0 || slot >= len(b.slots) {
		return fmt.Errorf("fpga: slot %d out of range [0,%d)", slot, len(b.slots))
	}
	if bytes <= 0 {
		return fmt.Errorf("fpga: state transfer needs positive size, got %d", bytes)
	}
	if s := b.slots[slot]; s.State != SlotLoaded {
		return fmt.Errorf("fpga: slot %d is %v, cannot transfer state", slot, s.State)
	}
	b.queue = append(b.queue, reconfigRequest{slot: slot, onDone: onDone, xferBytes: bytes})
	b.pump()
	return nil
}

// pump starts the next queued reconfiguration if the CAP is idle. The
// queue pops by copy-down, so later appends reuse its capacity.
func (b *Board) pump() {
	if b.busy || len(b.queue) == 0 {
		return
	}
	b.cur = b.queue[0]
	n := copy(b.queue, b.queue[1:])
	b.queue[n] = reconfigRequest{}
	b.queue = b.queue[:n]
	b.busy = true
	b.stream(0)
}

// stream charges one attempt of the in-flight request (plus backoff and
// any injected CAP stall) to the busy CAP and schedules its completion.
// The fault outcome is drawn up front — exactly one injector
// consultation per attempt. Checkpoint state transfers skip the
// injector and never retry.
func (b *Board) stream(backoff sim.Duration) {
	if b.cur.xferBytes > 0 {
		b.curDur = b.StateTransferTime(b.cur.xferBytes)
		b.eng.After(b.curDur, b.completeFn)
		return
	}
	b.curOut = ReconfigOutcome{}
	if b.inj != nil {
		b.curOut = b.inj.ReconfigAttempt(b.eng.Now(), b.cur.slot, b.cur.tries)
	}
	b.curDur = b.cfg.ReconfigTime() + b.curOut.Stall
	b.eng.After(backoff+b.curDur, b.completeFn)
}

// complete ends the in-flight stream's current attempt.
func (b *Board) complete() {
	if b.cur.xferBytes > 0 {
		b.finishTransfer()
	} else {
		b.finish()
	}
}

// The retry backoff: the first retry of a faulted reconfiguration
// waits retryBackoff, and each further retry doubles the wait up to
// retryBackoffCap.
const (
	retryBackoff    = 5 * sim.Millisecond
	retryBackoffCap = 80 * sim.Millisecond
)

// backoffFor is the capped exponential delay before retry n (n >= 1).
func backoffFor(n int) sim.Duration {
	d := retryBackoff
	for i := 1; i < n && d < retryBackoffCap; i++ {
		d *= 2
	}
	return min(d, retryBackoffCap)
}

// finishTransfer completes a checkpoint state transfer and releases the
// CAP. The slot keeps whatever state it had — a transfer mutates no
// configuration, so even a slot that went offline mid-stream needs no
// board-side handling (the hypervisor's callbacks guard for staleness).
func (b *Board) finishTransfer() {
	req := b.cur
	b.stats.StateTransfers++
	b.stats.StateTransferTime += b.curDur
	b.busy = false
	b.pump()
	if req.onDone != nil {
		req.onDone(nil)
	}
}

// finish completes (or retries) the active reconfiguration. It works on
// a copy of the request because pump overwrites b.cur before onDone runs.
func (b *Board) finish() {
	req, out := b.cur, b.curOut
	b.stats.ReconfigTime += b.curDur
	if b.failPending[req.slot] {
		// The region died while the stream was in flight; the attempt is
		// lost regardless of its own outcome.
		b.failPending[req.slot] = false
		out = ReconfigOutcome{Class: FaultFatal}
	}
	switch out.Class {
	case FaultCRC, FaultSD:
		b.stats.Faults++
		b.slotStats[req.slot].Faults++
		if req.tries < b.cfg.MaxRetries {
			b.cur.tries++
			b.stats.Retries++
			b.slotStats[req.slot].Retries++
			if b.cfg.OnRetry != nil {
				b.cfg.OnRetry(req.slot)
			}
			// Retry: stream the image again after backoff; the CAP stays
			// busy — the single reconfiguration pipeline is blocked on
			// the faulted stream.
			b.stream(backoffFor(b.cur.tries))
			return
		}
		// Unrecoverable: free the slot and report the error.
		s := b.slots[req.slot]
		b.accrue()
		b.occupied--
		s.State = SlotFree
		b.busy = false
		b.pump()
		if req.onDone != nil {
			req.onDone(fmt.Errorf("fpga: reconfiguration of slot %d failed after %d retries", req.slot, req.tries))
		}
		return
	case FaultFatal:
		b.stats.Faults++
		b.slotStats[req.slot].Faults++
		b.takeOffline(req.slot)
		b.busy = false
		b.pump()
		if req.onDone != nil {
			req.onDone(fmt.Errorf("fpga: slot %d failed permanently during reconfiguration", req.slot))
		}
		return
	}
	b.stats.Reconfigurations++
	b.slotStats[req.slot].Reconfigurations++
	if req.tries > 0 {
		b.stats.Recovered += req.tries
	}
	s := b.slots[req.slot]
	s.State = SlotLoaded
	b.busy = false
	b.pump()
	if req.onDone != nil {
		req.onDone(nil)
	}
}

// takeOffline transitions a slot to SlotOffline unconditionally.
func (b *Board) takeOffline(slot int) {
	s := b.slots[slot]
	b.accrue()
	if s.State == SlotReconfiguring || s.State == SlotLoaded {
		b.occupied--
	}
	b.usable--
	s.State = SlotOffline
	b.stats.Offline++
}

// SetOffline permanently removes a slot from service (fatal fault or
// hypervisor quarantine). A free slot goes offline immediately; a
// reconfiguring slot is marked so the in-flight stream fails on
// completion. A loaded slot must be released (its occupant killed) by
// the caller first. Idempotent for slots already offline.
func (b *Board) SetOffline(slot int) error {
	if slot < 0 || slot >= len(b.slots) {
		return fmt.Errorf("fpga: slot %d out of range", slot)
	}
	s := b.slots[slot]
	switch s.State {
	case SlotOffline:
		return nil
	case SlotFree:
		b.takeOffline(slot)
		return nil
	case SlotReconfiguring:
		b.failPending[slot] = true
		return nil
	default:
		return fmt.Errorf("fpga: slot %d is %v, release it before taking it offline", slot, s.State)
	}
}

// SlotUsable reports whether slot i is still in service.
func (b *Board) SlotUsable(i int) bool { return b.slots[i].State != SlotOffline }

// UsableSlots counts slots still in service. Every offline transition
// goes through takeOffline, which keeps the energy model's usable count
// exact, so this is that counter.
func (b *Board) UsableSlots() int { return b.usable }

// OfflineSlots lists the IDs of slots permanently out of service.
func (b *Board) OfflineSlots() []int {
	var off []int
	for _, s := range b.slots {
		if s.State == SlotOffline {
			off = append(off, s.ID)
		}
	}
	return off
}

// Release decouples and frees a loaded slot. The hypervisor calls this
// when a task completes or is preempted at a batch boundary.
func (b *Board) Release(slot int) error {
	if slot < 0 || slot >= len(b.slots) {
		return fmt.Errorf("fpga: slot %d out of range", slot)
	}
	s := b.slots[slot]
	if s.State != SlotLoaded {
		return fmt.Errorf("fpga: slot %d is %v, cannot release", slot, s.State)
	}
	b.accrue()
	b.occupied--
	s.State = SlotFree
	b.stats.Releases++
	return nil
}

// FreeSlots lists the IDs of slots currently free. The returned slice
// is a board-owned scratch buffer valid until the next FreeSlots call on
// this board; callers must not retain or mutate it. This is the hottest
// query on the scheduling path — reusing the buffer keeps it
// allocation-free.
func (b *Board) FreeSlots() []int {
	free := b.freeScratch[:0]
	for _, s := range b.slots {
		if s.State == SlotFree {
			free = append(free, s.ID)
		}
	}
	b.freeScratch = free
	return free
}
