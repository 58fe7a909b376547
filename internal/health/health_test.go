package health

import (
	"testing"

	"nimblock/internal/faults"
	"nimblock/internal/obs"
	"nimblock/internal/sim"
)

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.LivenessInterval != 500*sim.Millisecond || c.LivenessMisses != 3 ||
		c.BackoffBase != 2*sim.Second ||
		c.BackoffMax != 60*sim.Second {
		t.Fatalf("defaults = %+v", c)
	}
	o := Options{}.WithDefaults()
	if o.RetryBudget != 2 {
		t.Fatalf("default retry budget = %d", o.RetryBudget)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Healthy: "healthy", Degraded: "degraded", Draining: "draining",
		Dead: "dead", Recovering: "recovering", State(99): "State(99)",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker(Config{BackoffBase: sim.Duration(sim.Second)}, 0)
	if tr.State() != Healthy || !tr.Placeable(0) || tr.Score() != 0 {
		t.Fatalf("fresh tracker: state=%v placeable=%v score=%d", tr.State(), tr.Placeable(0), tr.Score())
	}
	tr.MarkDegraded()
	if tr.State() != Degraded || !tr.Placeable(0) || tr.Score() != 1 {
		t.Fatalf("degraded tracker: state=%v placeable=%v score=%d", tr.State(), tr.Placeable(0), tr.Score())
	}
	tr.ClearDegraded()
	tr.BeginDrain()
	if tr.State() != Draining || tr.Placeable(0) {
		t.Fatalf("draining tracker: state=%v placeable=%v", tr.State(), tr.Placeable(0))
	}
	tr.EndDrain()
	if tr.State() != Healthy {
		t.Fatalf("drain did not end: %v", tr.State())
	}
	tr.MarkDead()
	if tr.State() != Dead || tr.Placeable(0) {
		t.Fatalf("dead tracker: state=%v placeable=%v", tr.State(), tr.Placeable(0))
	}
	now := sim.Time(10 * sim.Second)
	at := tr.Revive(now)
	if tr.State() != Recovering || at <= now || at != tr.ReadmitAt() {
		t.Fatalf("revive: state=%v at=%v readmit=%v", tr.State(), at, tr.ReadmitAt())
	}
	if tr.Placeable(at - 1) {
		t.Fatal("placeable before the breaker backoff expired")
	}
	if !tr.Placeable(at) {
		t.Fatal("not placeable at the re-admission time")
	}
	// Probation: two consecutive successes promote to Healthy.
	tr.ReportSuccess()
	if tr.State() != Recovering {
		t.Fatalf("promoted after one success: %v", tr.State())
	}
	tr.ReportSuccess()
	if tr.State() != Healthy {
		t.Fatalf("not promoted after probation: %v", tr.State())
	}
}

// TestBackoffGrowsAndCaps checks the breaker backoff doubles per
// opening, stays inside the jitter envelope, and saturates at the max.
func TestBackoffGrowsAndCaps(t *testing.T) {
	cfg := Config{
		BackoffBase: sim.Duration(sim.Second),
		BackoffMax:  8 * sim.Second,
	}
	tr := NewTracker(cfg, 0)
	want := []sim.Duration{
		sim.Duration(sim.Second), 2 * sim.Second, 4 * sim.Second,
		8 * sim.Second, 8 * sim.Second, // capped
	}
	for i, base := range want {
		tr.MarkDead()
		at := tr.Revive(0)
		got := sim.Duration(at)
		lo := sim.Duration(float64(base) * 0.8)
		hi := sim.Duration(float64(base) * 1.2)
		if got < lo || got > hi {
			t.Fatalf("opening %d: backoff %v outside [%v, %v]", i+1, got, lo, hi)
		}
	}
	// Completing probation resets the escalation.
	tr.ReportSuccess()
	tr.ReportSuccess()
	tr.MarkDead()
	got := sim.Duration(tr.Revive(0))
	if got > sim.Duration(float64(sim.Second)*1.2) {
		t.Fatalf("backoff did not reset after recovery: %v", got)
	}
}

// TestMarkDeadOpensBreaker checks that one death opens the breaker, a
// second before probation completes escalates the backoff, and
// successes outside recovery do not close it.
func TestMarkDeadOpensBreaker(t *testing.T) {
	// revive checks the opening count and that Revive readmits exactly
	// one backoff later, inside the ±20% jitter band around base.
	revive := func(step string, tr *Tracker, opens int, base sim.Duration) {
		t.Helper()
		at := tr.Revive(10)
		lo, hi := sim.Duration(float64(base)*0.8), sim.Duration(float64(base)*1.2)
		if tr.opens != opens || at != 10+sim.Time(tr.backoff) || tr.backoff < lo || tr.backoff > hi {
			t.Fatalf("%s: opens=%d readmit=%v backoff=%v, want %d openings and a backoff in [%v, %v]",
				step, tr.opens, at, tr.backoff, opens, lo, hi)
		}
	}
	tr := NewTracker(Config{BackoffBase: sim.Duration(sim.Second)}, 0)
	tr.MarkDead()
	revive("one death", tr, 1, sim.Duration(sim.Second))
	tr.ReportSuccess() // one of the two probation successes
	tr.MarkDead()
	revive("second death", tr, 2, 2*sim.Second)
	fresh := NewTracker(Config{BackoffBase: sim.Duration(sim.Second)}, 0)
	fresh.ReportSuccess()
	fresh.MarkDead()
	revive("death after a healthy success", fresh, 1, sim.Duration(sim.Second))
}

// TestNoteLiveness walks the suspect → drain → dead ladder and checks
// progress clears suspicion.
func TestNoteLiveness(t *testing.T) {
	tr := NewTracker(Config{LivenessMisses: 3}, 0)
	if tr.NoteLiveness(1, true) {
		t.Fatal("first poll died")
	}
	// Static progress with work outstanding: miss 1 suspects (drains).
	if tr.NoteLiveness(1, true) || tr.State() != Draining {
		t.Fatalf("after one miss: %v", tr.State())
	}
	// Progress resumes: suspicion clears.
	if tr.NoteLiveness(2, true) || tr.State() != Healthy {
		t.Fatalf("progress did not clear suspicion: %v", tr.State())
	}
	// Idle boards never miss.
	for i := 0; i < 5; i++ {
		if tr.NoteLiveness(2, false) {
			t.Fatal("idle board died")
		}
	}
	if tr.State() != Healthy {
		t.Fatalf("idle board left healthy: %v", tr.State())
	}
	// Three consecutive static busy polls kill the board.
	tr.NoteLiveness(3, true)
	died := false
	for i := 0; i < 3; i++ {
		died = tr.NoteLiveness(3, true)
	}
	if !died || tr.State() != Dead {
		t.Fatalf("liveness did not declare death: died=%v state=%v", died, tr.State())
	}
	// Dead boards ignore further polls.
	if tr.NoteLiveness(3, true) {
		t.Fatal("dead board died again")
	}
	tr.Revive(0)
	if tr.NoteLiveness(3, true) {
		t.Fatal("recovering board died from stale progress")
	}
	// A rebuilt board that stalls during probation does not drain, but
	// dies after the same number of static busy polls.
	for i := 0; i < 2; i++ {
		if tr.NoteLiveness(3, true) || tr.State() != Recovering || !tr.Stalled() {
			t.Fatalf("probation miss %d: state %v stalled %v", i+1, tr.State(), tr.Stalled())
		}
	}
	if !tr.NoteLiveness(3, true) || tr.State() != Dead {
		t.Fatalf("stalled recovering board not declared dead: %v", tr.State())
	}
}

func TestScheduleValidation(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMonitor(eng, 2, Config{}, Hooks{
		Progress: func(int) uint64 { return 0 },
		Busy:     func(int) bool { return false },
		OnDead:   func(int) {},
	}, nil)
	if err := m.Schedule([]faults.BoardEvent{{Kind: faults.BoardCrash, Board: 2}}); err == nil {
		t.Fatal("out-of-range board accepted")
	}
	if err := m.Schedule([]faults.BoardEvent{{Kind: faults.Kind(-1), Board: 0}}); err == nil {
		t.Fatal("non-board kind accepted")
	}
	if err := m.Schedule([]faults.BoardEvent{{Kind: faults.BoardCrash, Board: 1, At: 5}}); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorCrashReviveCycle drives a scheduled crash + recovery
// through the monitor and checks hooks fire in order and the stats and
// instruments agree.
func TestMonitorCrashReviveCycle(t *testing.T) {
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	ins := NewInstruments(reg)
	var deaths, revives []int
	m := NewMonitor(eng, 2, Config{BackoffBase: 100 * sim.Millisecond}, Hooks{
		Progress: func(int) uint64 { return 0 },
		Busy:     func(int) bool { return false },
		OnDead:   func(b int) { deaths = append(deaths, b) },
		OnRevive: func(b int) { revives = append(revives, b) },
	}, ins)
	err := m.Schedule([]faults.BoardEvent{{
		Kind: faults.BoardCrash, Board: 1,
		At: sim.Time(sim.Second), Recover: sim.Time(2 * sim.Second),
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(10 * sim.Second))
	if len(deaths) != 1 || deaths[0] != 1 || len(revives) != 1 || revives[0] != 1 {
		t.Fatalf("deaths=%v revives=%v", deaths, revives)
	}
	st := m.Stats()
	if st.Deaths != 1 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if m.Tracker(1).State() != Recovering {
		t.Fatalf("board 1 state %v after revive", m.Tracker(1).State())
	}
	if !m.Tracker(1).Placeable(eng.Now()) {
		t.Fatal("backoff long expired but board not placeable")
	}
}

// TestMonitorLivenessDeclaresFrozenDead feeds a static progress counter
// through the poll loop: the busy board must drain and then die without
// any scheduled crash.
func TestMonitorLivenessDeclaresFrozenDead(t *testing.T) {
	eng := sim.NewEngine()
	var dead []int
	frozen := false
	m := NewMonitor(eng, 1, Config{LivenessInterval: 100 * sim.Millisecond, LivenessMisses: 3}, Hooks{
		Progress: func(int) uint64 { return 7 }, // never advances
		Busy:     func(int) bool { return true },
		OnDead:   func(b int) { dead = append(dead, b) },
		OnFreeze: func(int) { frozen = true },
	}, nil)
	err := m.Schedule([]faults.BoardEvent{{Kind: faults.BoardHang, Board: 0, At: sim.Time(50 * sim.Millisecond)}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(5 * sim.Second))
	if !frozen {
		t.Fatal("freeze hook never fired")
	}
	if len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("deaths = %v, want [0]", dead)
	}
	if st := m.Stats(); st.Freezes != 1 || st.Deaths != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMonitorBaselinesLivenessAtFreeze is the regression test for a
// stale liveness baseline on a revived board. The board emits events
// and then freezes, either before any poll chain runs (idle events,
// then work arriving after the hang) or while one is armed (work kicks
// the chain, the board makes progress, then hangs within the same
// interval). The next poll must measure progress from the freeze, or
// the earlier events read as liveness, the recovering board is not
// polled again, and its work never finishes.
func TestMonitorBaselinesLivenessAtFreeze(t *testing.T) {
	ms := sim.Millisecond
	for _, tc := range []struct {
		name       string
		step, work sim.Time
	}{
		{"idle events before the chain", sim.Time(2500 * ms), sim.Time(3050 * ms)},
		{"progress while the chain is armed", sim.Time(2980 * ms), sim.Time(2950 * ms)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			var progress uint64
			busy := false
			deaths := 0
			m := NewMonitor(eng, 1, Config{LivenessInterval: 100 * ms, BackoffBase: 100 * ms}, Hooks{
				Progress: func(int) uint64 { return progress },
				Busy:     func(int) bool { return busy },
				OnDead:   func(int) { deaths++ },
				OnRevive: func(int) {},
			}, nil)
			err := m.Schedule([]faults.BoardEvent{
				{Kind: faults.BoardCrash, Board: 0, At: sim.Time(sim.Second), Recover: sim.Time(2 * sim.Second)},
				{Kind: faults.BoardHang, Board: 0, At: sim.Time(3 * sim.Second)},
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.At(tc.step, func() { progress = 5 })
			eng.At(tc.work, func() { busy = true; m.Kick() })
			eng.RunUntil(sim.Time(10 * sim.Second))
			if deaths != 2 {
				t.Fatalf("deaths = %d, want the crash and the frozen board's liveness death", deaths)
			}
		})
	}
}

// Arming the liveness poll and firing it allocate nothing: the poll is
// bound once in NewMonitor, not re-bound as a method value per Kick.
func TestKickZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	var progress uint64
	m := NewMonitor(eng, 2, Config{}, Hooks{
		Progress: func(int) uint64 { return progress },
		Busy:     func(int) bool { return false },
		OnDead:   func(int) { t.Fatal("an idle board died") },
	}, nil)
	polls := 0
	kickAndPoll := func() {
		m.Kick()
		if !eng.Step() {
			t.Fatal("Kick armed no poll")
		}
		polls++
		progress++
	}
	kickAndPoll() // warm the engine's event pool
	if n := testing.AllocsPerRun(100, kickAndPoll); n != 0 {
		t.Fatalf("Kick and its poll allocate %v per run, want 0", n)
	}
	if m.armed || eng.Pending() != 0 {
		t.Fatalf("an idle fleet left its poll armed (pending %d)", eng.Pending())
	}
	if polls != 102 {
		t.Fatalf("%d polls fired, want 102", polls)
	}
}
