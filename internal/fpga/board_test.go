package fpga

import (
	"math/rand"
	"testing"

	"nimblock/internal/sim"
)

func newBoard(t *testing.T, cfg Config) (*sim.Engine, *Board) {
	t.Helper()
	eng := sim.NewEngine()
	b, err := NewBoard(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, b
}

func TestDefaultReconfigAround80ms(t *testing.T) {
	_, b := newBoard(t, DefaultConfig())
	d := b.cfg.ReconfigTime()
	if d < 70*sim.Millisecond || d > 90*sim.Millisecond {
		t.Fatalf("reconfig time %v, want ~80ms", d)
	}
}

func TestReconfigureLifecycle(t *testing.T) {
	eng, b := newBoard(t, DefaultConfig())
	var doneAt sim.Time
	if err := b.Reconfigure(3, func(err error) {
		if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
		doneAt = eng.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if got := b.Slot(3).State; got != SlotReconfiguring {
		t.Fatalf("state during reconfig = %v", got)
	}
	if !b.CAPBusy() {
		t.Fatal("CAP should be busy")
	}
	eng.Run()
	if b.Slot(3).State != SlotLoaded {
		t.Fatalf("state after reconfig = %v", b.Slot(3).State)
	}
	if doneAt != sim.Time(0).Add(b.cfg.ReconfigTime()) {
		t.Fatalf("completion at %v, want %v", doneAt, b.cfg.ReconfigTime())
	}
	if b.Stats().Reconfigurations != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestCAPSerializesRequests(t *testing.T) {
	eng, b := newBoard(t, DefaultConfig())
	var order []int
	var times []sim.Time
	for _, slot := range []int{0, 1, 2} {
		slot := slot
		if err := b.Reconfigure(slot, func(error) {
			order = append(order, slot)
			times = append(times, eng.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.queue) != 2 {
		t.Fatalf("queue length = %d, want 2", len(b.queue))
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order %v", order)
	}
	d := b.cfg.ReconfigTime()
	for i, at := range times {
		want := sim.Time(0).Add(sim.Duration(i+1) * d)
		if at != want {
			t.Fatalf("completion %d at %v, want %v (serialized)", i, at, want)
		}
	}
}

func TestReconfigureValidation(t *testing.T) {
	eng, b := newBoard(t, DefaultConfig())
	if err := b.Reconfigure(99, nil); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if err := b.Reconfigure(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Reconfigure(0, nil); err == nil {
		t.Fatal("reconfigure of busy slot accepted")
	}
	eng.Run()
	if err := b.Reconfigure(0, nil); err == nil {
		t.Fatal("reconfigure of loaded slot accepted")
	}
}

func TestRelease(t *testing.T) {
	eng, b := newBoard(t, DefaultConfig())
	if err := b.Release(0); err == nil {
		t.Fatal("release of free slot accepted")
	}
	b.Reconfigure(0, nil)
	eng.Run()
	if err := b.Release(0); err != nil {
		t.Fatal(err)
	}
	if b.Slot(0).State != SlotFree {
		t.Fatal("release did not free slot")
	}
	if len(b.FreeSlots()) != b.NumSlots() {
		t.Fatalf("FreeSlots = %v", b.FreeSlots())
	}
}

func TestFaultInjectionRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NewInjector = seeded(0.5, 42)
	cfg.MaxRetries = 10
	eng, b := newBoard(t, cfg)
	ok := false
	b.Reconfigure(0, func(err error) {
		if err != nil {
			t.Errorf("reconfig failed despite retries: %v", err)
		}
		ok = true
	})
	eng.Run()
	if !ok {
		t.Fatal("callback never invoked")
	}
	if b.Slot(0).State != SlotLoaded {
		t.Fatalf("slot state %v after retried reconfig", b.Slot(0).State)
	}
}

func TestFaultInjectionExhaustsRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NewInjector = seeded(0.999999, 7)
	cfg.MaxRetries = 2
	eng, b := newBoard(t, cfg)
	var gotErr error
	called := false
	b.Reconfigure(0, func(err error) { gotErr = err; called = true })
	eng.Run()
	if !called || gotErr == nil {
		t.Fatal("expected an unrecoverable reconfiguration error")
	}
	if b.Slot(0).State != SlotFree {
		t.Fatalf("failed slot should be freed, state=%v", b.Slot(0).State)
	}
	if b.Stats().Faults != 3 {
		t.Fatalf("faults = %d, want 3 (initial + 2 retries)", b.Stats().Faults)
	}
	if b.Stats().Retries != 2 {
		t.Fatalf("retries = %d, want 2", b.Stats().Retries)
	}
	if ss := b.SlotStats(0); ss.Faults != 3 || ss.Retries != 2 || ss.Reconfigurations != 0 {
		t.Fatalf("slot 0 stats = %+v", ss)
	}
	// The CAP must recover for subsequent work.
	ok := false
	b.inj = nil // heal the injected fault process
	b.Reconfigure(1, func(err error) { ok = err == nil })
	eng.Run()
	if !ok {
		t.Fatal("CAP did not recover after a failed reconfiguration")
	}
}

// Retried streams are distinguishable in Stats: Retries counts re-streamed
// attempts, Recovered counts faults absorbed by eventual success, and the
// per-slot counters attribute them to the faulting region.
func TestRetryAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NewInjector = seeded(0.5, 42)
	cfg.MaxRetries = 10
	eng, b := newBoard(t, cfg)
	if err := b.Reconfigure(0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := b.Stats()
	if st.Reconfigurations != 1 {
		t.Fatalf("reconfigurations = %d, want 1", st.Reconfigurations)
	}
	if st.Faults == 0 {
		t.Fatal("seed 42 at rate 0.5 should fault at least once")
	}
	if st.Retries != st.Faults {
		t.Fatalf("retries = %d, faults = %d; every fault of a recovered stream is a retry", st.Retries, st.Faults)
	}
	if st.Recovered != st.Faults {
		t.Fatalf("recovered = %d, want %d (the stream eventually succeeded)", st.Recovered, st.Faults)
	}
	ss := b.SlotStats(0)
	if ss.Faults != st.Faults || ss.Retries != st.Retries || ss.Reconfigurations != 1 {
		t.Fatalf("slot stats %+v disagree with board stats %+v", ss, st)
	}
	if other := b.SlotStats(1); other != (SlotStats{}) {
		t.Fatalf("healthy slot accrued stats %+v", other)
	}
}

// Retries back off exponentially with a cap: retry n waits
// min(retryBackoff << (n-1), retryBackoffCap) before re-streaming.
func TestRetryBackoffTiming(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 6
	faults := 6 // fail the first six attempts, then succeed
	cfg.NewInjector = func() Injector {
		return scriptedInjector{reconfig: func(attempt int) ReconfigOutcome {
			if attempt < faults {
				return ReconfigOutcome{Class: FaultCRC}
			}
			return ReconfigOutcome{}
		}}
	}
	eng, b := newBoard(t, cfg)
	var doneAt sim.Time
	if err := b.Reconfigure(0, func(err error) {
		if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
		doneAt = eng.Now()
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	d := b.cfg.ReconfigTime()
	// 7 attempts + backoffs of 5, 10, 20, 40, then the 80 ms cap twice.
	want := sim.Time(0).Add(7*d + (5+10+20+40+80+80)*sim.Millisecond)
	if doneAt != want {
		t.Fatalf("completion at %v, want %v", doneAt, want)
	}
	if b.Stats().Retries != 6 || b.Stats().Recovered != 6 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

// scriptedInjector drives deterministic outcomes per attempt index.
type scriptedInjector struct {
	reconfig func(attempt int) ReconfigOutcome
}

func (s scriptedInjector) ReconfigAttempt(now sim.Time, slot, attempt int) ReconfigOutcome {
	return s.reconfig(attempt)
}
func (s scriptedInjector) Exec(now sim.Time, app string, task, slot int) ExecOutcome {
	return ExecOutcome{}
}
func (s scriptedInjector) Checkpoint(sim.Time, string, int, int) CheckpointOutcome {
	return CheckpointOutcome{}
}
func (s scriptedInjector) PermanentFailures() []SlotFailure { return nil }

// seededInjector faults each reconfiguration attempt CRC with a fixed
// probability, one draw per attempt from its seeded stream.
type seededInjector struct {
	rate float64
	rng  *rand.Rand
}

// seeded returns a factory for seededInjector.
func seeded(rate float64, seed int64) func() Injector {
	return func() Injector {
		return &seededInjector{rate: rate, rng: rand.New(rand.NewSource(seed))}
	}
}

func (s *seededInjector) ReconfigAttempt(now sim.Time, slot, attempt int) ReconfigOutcome {
	if s.rng.Float64() < s.rate {
		return ReconfigOutcome{Class: FaultCRC}
	}
	return ReconfigOutcome{}
}
func (s *seededInjector) Exec(now sim.Time, app string, task, slot int) ExecOutcome {
	return ExecOutcome{}
}
func (s *seededInjector) Checkpoint(sim.Time, string, int, int) CheckpointOutcome {
	return CheckpointOutcome{}
}
func (s *seededInjector) PermanentFailures() []SlotFailure { return nil }

// A fatal fault takes the slot offline; the board keeps serving the
// remaining regions and reports the reduced usable count.
func TestFatalFaultTakesSlotOffline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NewInjector = func() Injector {
		return scriptedInjector{reconfig: func(attempt int) ReconfigOutcome {
			return ReconfigOutcome{Class: FaultFatal}
		}}
	}
	eng, b := newBoard(t, cfg)
	var gotErr error
	b.Reconfigure(4, func(err error) { gotErr = err })
	eng.Run()
	if gotErr == nil {
		t.Fatal("fatal fault reported no error")
	}
	if b.Slot(4).State != SlotOffline {
		t.Fatalf("slot state = %v, want offline", b.Slot(4).State)
	}
	if b.UsableSlots() != b.NumSlots()-1 {
		t.Fatalf("usable = %d, want %d", b.UsableSlots(), b.NumSlots()-1)
	}
	if off := b.OfflineSlots(); len(off) != 1 || off[0] != 4 {
		t.Fatalf("offline = %v", off)
	}
	if b.SlotUsable(4) || !b.SlotUsable(3) {
		t.Fatal("SlotUsable disagrees with slot state")
	}
	// Offline slots are not free and cannot be reconfigured or released.
	for _, s := range b.FreeSlots() {
		if s == 4 {
			t.Fatal("offline slot listed free")
		}
	}
	if err := b.Reconfigure(4, nil); err == nil {
		t.Fatal("reconfigure of offline slot accepted")
	}
	if err := b.Release(4); err == nil {
		t.Fatal("release of offline slot accepted")
	}
}

// SetOffline handles all slot states: free goes down immediately,
// reconfiguring fails the in-flight stream, loaded must be released
// first, and the call is idempotent.
func TestSetOffline(t *testing.T) {
	eng, b := newBoard(t, DefaultConfig())
	if err := b.SetOffline(0); err != nil {
		t.Fatal(err)
	}
	if b.Slot(0).State != SlotOffline {
		t.Fatalf("state = %v", b.Slot(0).State)
	}
	if err := b.SetOffline(0); err != nil {
		t.Fatalf("SetOffline not idempotent: %v", err)
	}
	// Mid-reconfiguration: the stream completes with a fatal error.
	var gotErr error
	if err := b.Reconfigure(1, func(err error) { gotErr = err }); err != nil {
		t.Fatal(err)
	}
	if err := b.SetOffline(1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if gotErr == nil {
		t.Fatal("in-flight stream on a dying slot reported no error")
	}
	if b.Slot(1).State != SlotOffline {
		t.Fatalf("state = %v, want offline", b.Slot(1).State)
	}
	// Loaded: the occupant must be released first.
	b.Reconfigure(2, nil)
	eng.Run()
	if err := b.SetOffline(2); err == nil {
		t.Fatal("SetOffline of a loaded slot accepted")
	}
	if err := b.Release(2); err != nil {
		t.Fatal(err)
	}
	if err := b.SetOffline(2); err != nil {
		t.Fatal(err)
	}
	if b.UsableSlots() != b.NumSlots()-3 {
		t.Fatalf("usable = %d", b.UsableSlots())
	}
	if b.Stats().Offline != 3 {
		t.Fatalf("offline stat = %d, want 3", b.Stats().Offline)
	}
}

func TestBoardConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	bad := []Config{
		{Slots: 0, CAPBytesPerSec: 1, SDBytesPerSec: 1},
		{Slots: 1, CAPBytesPerSec: 0, SDBytesPerSec: 1},
		{Slots: 1, CAPBytesPerSec: 1, SDBytesPerSec: 0},
	}
	for i, cfg := range bad {
		if _, err := NewBoard(eng, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestResourcesTable1(t *testing.T) {
	// The static region dominates the board; a slot's demand fits the
	// slot capacity but not vice versa.
	if !SlotResourcesMax.Fits(SlotResources) {
		t.Fatal("slot min should fit slot max")
	}
	if SlotResources.Fits(StaticResources) {
		t.Fatal("static region cannot fit in a slot")
	}
	ten := SlotResources.Scale(10)
	if ten.LUT != 96800 {
		t.Fatalf("Scale: %+v", ten)
	}
	sum := SlotResources.Add(StaticResources)
	if sum.DSP != 46+1004 {
		t.Fatalf("Add: %+v", sum)
	}
}

// UsableSlots is the counter takeOffline maintains, not a scan; it must
// agree with the slot states through every way a slot leaves service: a
// fatal fault mid-stream, SetOffline on a free, a reconfiguring, and a
// released slot, repeated SetOffline calls, and a quarantine (SetOffline
// of a free slot whose stream exhausted its retries).
func TestUsableSlotsMatchesSlotStates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 1
	cfg.NewInjector = func() Injector {
		return slotInjector{5: FaultFatal, 6: FaultCRC}
	}
	eng, b := newBoard(t, cfg)
	check := func(step string) {
		t.Helper()
		n := 0
		for i := 0; i < b.NumSlots(); i++ {
			if b.Slot(i).State != SlotOffline {
				n++
			}
		}
		if got := b.UsableSlots(); got != n {
			t.Fatalf("%s: UsableSlots = %d, slot states say %d", step, got, n)
		}
	}
	check("fresh board")
	// Fatal fault during a stream.
	b.Reconfigure(5, nil)
	eng.Run()
	check("fatal fault")
	// Free slot, twice (idempotent).
	b.SetOffline(0)
	b.SetOffline(0)
	check("SetOffline on a free slot")
	// Reconfiguring slot: offline once the doomed stream lands.
	b.Reconfigure(1, nil)
	b.SetOffline(1)
	check("SetOffline on a reconfiguring slot, stream in flight")
	eng.Run()
	check("SetOffline on a reconfiguring slot, stream landed")
	// Loaded slot: refused, then accepted after release.
	b.Reconfigure(2, nil)
	eng.Run()
	if err := b.SetOffline(2); err == nil {
		t.Fatal("SetOffline of a loaded slot accepted")
	}
	check("refused SetOffline on a loaded slot")
	b.Release(2)
	b.SetOffline(2)
	check("SetOffline after release")
	// Quarantine: retries exhausted, the freed slot is retired.
	b.Reconfigure(6, nil)
	eng.Run()
	if b.Slot(6).State != SlotFree || b.SlotStats(6).Faults != 2 {
		t.Fatalf("slot 6 after exhausted retries: %v with %d faults", b.Slot(6).State, b.SlotStats(6).Faults)
	}
	b.SetOffline(6)
	check("quarantine")
	if got, want := b.UsableSlots(), b.NumSlots()-5; got != want {
		t.Fatalf("UsableSlots = %d after five slots left service, want %d", got, want)
	}
}

// slotInjector faults every reconfiguration attempt on the listed slots
// with the given class.
type slotInjector map[int]FaultClass

func (s slotInjector) ReconfigAttempt(now sim.Time, slot, attempt int) ReconfigOutcome {
	return ReconfigOutcome{Class: s[slot]}
}
func (s slotInjector) Exec(now sim.Time, app string, task, slot int) ExecOutcome {
	return ExecOutcome{}
}
func (s slotInjector) Checkpoint(sim.Time, string, int, int) CheckpointOutcome {
	return CheckpointOutcome{}
}
func (s slotInjector) PermanentFailures() []SlotFailure { return nil }
