package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"nimblock/internal/admit"
	"nimblock/internal/apps"
	"nimblock/internal/faults"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

// newFailoverCluster builds a cluster with the failure-domain layer
// armed and the given board events scheduled.
func newFailoverCluster(t *testing.T, boards int, cfg Config, events []faults.BoardEvent) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	cfg.Boards = boards
	if cfg.HV.Board.Slots == 0 {
		cfg.HV = hv.DefaultConfig()
	}
	cfg.BoardFaults = events
	c, err := New(eng, cfg, mkNimblock(cfg.HV))
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// classify asserts the exactly-one-terminal-outcome invariant and
// returns the counts.
func classify(t *testing.T, c *Cluster, res []Result) (completed, rejected, failed int) {
	t.Helper()
	for i, r := range res {
		switch {
		case r.Rejected:
			rejected++
			if r.Failed {
				t.Fatalf("result %d both rejected and failed: %+v", i, r)
			}
		case r.Failed:
			failed++
			if r.FailReason == "" {
				t.Fatalf("result %d failed without a reason: %+v", i, r)
			}
			if r.Response != 0 || r.Retire != 0 {
				t.Fatalf("result %d failed but carries completion times: %+v", i, r)
			}
		default:
			completed++
			if r.Board < 0 || r.Board >= c.Boards() || r.Response <= 0 {
				t.Fatalf("result %d completed but malformed: %+v", i, r)
			}
			if r.Attempts < 1 {
				t.Fatalf("result %d completed with %d attempts", i, r.Attempts)
			}
		}
	}
	return
}

func TestBoardCrashRedispatchesWork(t *testing.T) {
	events := []faults.BoardEvent{{
		Kind: faults.BoardCrash, Board: 0,
		At: sim.Time(300 * sim.Millisecond), Recover: sim.Time(20 * sim.Second),
	}}
	_, c := newFailoverCluster(t, 2, Config{Dispatch: RoundRobin, Seed: 1}, events)
	submitMix(t, c, 8)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("%d results for 8 submissions", len(res))
	}
	completed, _, failed := classify(t, c, res)
	if completed+failed != 8 {
		t.Fatalf("conservation broken: %d completed + %d failed != 8", completed, failed)
	}
	st := c.FailoverStats()
	if st.Deaths == 0 {
		t.Fatal("crash fault never declared a death")
	}
	if st.Redispatched == 0 && failed == 0 {
		t.Fatal("board died with work aboard but nothing was re-dispatched or failed")
	}
	if completed == 0 {
		t.Fatal("no submission survived a single-board crash in a 2-board fleet")
	}
}

// TestRebuiltBoardTakesPastSlotFailures is the regression test for a
// board rebuilt after its death: every permanent slot failure in its
// plan dated at or before the rebuild is already due, so the slot must
// go offline at once rather than be scheduled in the past.
func TestRebuiltBoardTakesPastSlotFailures(t *testing.T) {
	plan := faults.MustParsePlan("dead slot=0 at=0s\nboard-crash board=0 at=100ms recover=5s")
	cfg := Config{Dispatch: RoundRobin, Seed: 1, HV: hv.DefaultConfig()}
	cfg.HV.Board.NewInjector = plan.MustFactory()
	_, c := newFailoverCluster(t, 2, cfg, plan.BoardEvents())
	submitMix(t, c, 8)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	completed, _, failed := classify(t, c, res)
	if completed+failed != 8 {
		t.Fatalf("conservation broken: %d completed + %d failed != 8", completed, failed)
	}
	if st := c.FailoverStats(); st.Deaths != 1 || st.Recoveries != 1 {
		t.Fatalf("deaths=%d recoveries=%d, want 1/1", st.Deaths, st.Recoveries)
	}
	for b := 0; b < c.Boards(); b++ {
		if c.Board(b).Board().SlotUsable(0) {
			t.Fatalf("board %d: slot 0 usable despite its plan killing it at 0s", b)
		}
	}
}

func TestBoardHangIsDetectedByLiveness(t *testing.T) {
	events := []faults.BoardEvent{{
		Kind: faults.BoardHang, Board: 1,
		At: sim.Time(300 * sim.Millisecond), Recover: sim.Time(60 * sim.Second),
	}}
	hopt := &health.Options{Tracker: health.Config{
		LivenessInterval: 200 * sim.Millisecond,
		LivenessMisses:   3,
	}}
	_, c := newFailoverCluster(t, 2, Config{Dispatch: RoundRobin, Seed: 2, Health: hopt}, events)
	submitMix(t, c, 8)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	completed, _, failed := classify(t, c, res)
	if completed+failed != 8 {
		t.Fatalf("conservation broken: %d + %d != 8", completed, failed)
	}
	st := c.FailoverStats()
	if st.Freezes != 1 {
		t.Fatalf("Freezes = %d, want 1", st.Freezes)
	}
	if st.Deaths == 0 {
		t.Fatal("liveness never declared the frozen board dead")
	}
}

func TestBoardDegradeSlowsButCompletes(t *testing.T) {
	run := func(events []faults.BoardEvent) sim.Duration {
		_, c := newFailoverCluster(t, 1, Config{Dispatch: RoundRobin, Seed: 3}, events)
		submitMix(t, c, 4)
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var worst sim.Duration
		for _, r := range res {
			if r.Failed || r.Rejected {
				t.Fatalf("degrade must not lose work: %+v", r)
			}
			if r.Response > worst {
				worst = r.Response
			}
		}
		return worst
	}
	clean := run([]faults.BoardEvent{{
		// A zero-effect marker event keeps the failure-domain layer armed
		// so both runs go through identical dispatch paths.
		Kind: faults.BoardDegrade, Board: 0, Factor: 1.0001,
		At: 0, Until: sim.Time(1 * sim.Millisecond),
	}})
	slowed := run([]faults.BoardEvent{{
		Kind: faults.BoardDegrade, Board: 0, Factor: 4,
		At: 0, Until: sim.Time(600 * sim.Second),
	}})
	if slowed <= clean {
		t.Fatalf("4x degrade did not slow the run: clean %v, degraded %v", clean, slowed)
	}
}

// TestCheckpointMigrationReducesWaste is the acceptance check that
// migrated items resume from their snapshots: the same crash with the
// checkpoint subsystem on wastes measurably less fabric time than full
// re-execution, and the migration counters prove snapshots moved.
func TestCheckpointMigrationReducesWaste(t *testing.T) {
	run := func(ckpt bool) health.Stats {
		cfg := Config{Dispatch: RoundRobin, Seed: 4, HV: hv.DefaultConfig()}
		if ckpt {
			cfg.HV.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 20 * sim.Millisecond}
		}
		// OpticalFlow items run 507ms; a crash at 1s lands mid-item with
		// several periodic snapshots already captured.
		events := []faults.BoardEvent{{
			Kind: faults.BoardCrash, Board: 0,
			At: sim.Time(1 * sim.Second), Recover: sim.Time(60 * sim.Second),
		}}
		_, c := newFailoverCluster(t, 2, cfg, events)
		for i := 0; i < 4; i++ {
			g := apps.MustGraph(apps.OpticalFlow)
			if err := c.Submit(g, 2, 3, sim.Time(i)*sim.Time(50*sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		completed, _, failed := classify(t, c, res)
		if completed+failed != 4 {
			t.Fatalf("conservation broken: %d + %d != 4", completed, failed)
		}
		return c.FailoverStats()
	}
	plain := run(false)
	migrated := run(true)
	if plain.Redispatched == 0 {
		t.Fatal("crash re-dispatched nothing; the scenario is too gentle to compare")
	}
	if migrated.MigratedItems == 0 {
		t.Fatal("checkpoint run migrated no items")
	}
	if migrated.MigratedWork <= 0 {
		t.Fatalf("migrated %d items but preserved no work", migrated.MigratedItems)
	}
	if migrated.WastedWork >= plain.WastedWork {
		t.Fatalf("checkpoint migration did not reduce waste: with %v, without %v",
			migrated.WastedWork, plain.WastedWork)
	}
}

func TestHedgedDispatchDuplicatesAndCancels(t *testing.T) {
	hopt := &health.Options{HedgePriority: 8}
	_, c := newFailoverCluster(t, 2, Config{Dispatch: LeastPending, Seed: 5, Health: hopt}, nil)
	lo := apps.MustGraph(apps.LeNet)
	hi := apps.MustGraph(apps.OpticalFlow)
	if err := c.Submit(lo, 2, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(hi, 2, 9, sim.Time(10*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results for 2 submissions", len(res))
	}
	completed, _, failed := classify(t, c, res)
	if completed != 2 || failed != 0 {
		t.Fatalf("completed %d failed %d, want 2/0", completed, failed)
	}
	st := c.FailoverStats()
	if st.Hedged != 1 {
		t.Fatalf("Hedged = %d, want 1 (only the priority-9 submission)", st.Hedged)
	}
	if st.HedgeCancelled != 1 {
		t.Fatalf("HedgeCancelled = %d, want 1 (the loser copy)", st.HedgeCancelled)
	}
}

// TestHedgeSurvivesBoardDeath crashes the fleet under hedged traffic:
// each submission must still end exactly once.
func TestHedgeSurvivesBoardDeath(t *testing.T) {
	hopt := &health.Options{HedgePriority: 1}
	events := []faults.BoardEvent{{
		Kind: faults.BoardCrash, Board: 0,
		At: sim.Time(250 * sim.Millisecond), Recover: sim.Time(20 * sim.Second),
	}}
	_, c := newFailoverCluster(t, 3, Config{Dispatch: RoundRobin, Seed: 6, Health: hopt}, events)
	submitMix(t, c, 9)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	completed, _, failed := classify(t, c, res)
	if completed+failed != 9 {
		t.Fatalf("conservation broken: %d + %d != 9", completed, failed)
	}
	if c.FailoverStats().Hedged == 0 {
		t.Fatal("no submission was hedged despite HedgePriority=1")
	}
}

// TestRecoveredBoardServesAgain checks the full circuit-breaker cycle:
// a crashed board revives, waits out its backoff, and takes new work
// within the same run.
func TestRecoveredBoardServesAgain(t *testing.T) {
	hopt := &health.Options{Tracker: health.Config{
		BackoffBase: 100 * sim.Millisecond,
		BackoffMax:  200 * sim.Millisecond,
	}}
	events := []faults.BoardEvent{{
		Kind: faults.BoardCrash, Board: 0,
		At: sim.Time(200 * sim.Millisecond), Recover: sim.Time(2 * sim.Second),
	}}
	_, c := newFailoverCluster(t, 2, Config{Dispatch: RoundRobin, Seed: 7, Health: hopt}, events)
	submitMix(t, c, 6)
	// Late arrivals land well after the board re-admits.
	for i := 0; i < 4; i++ {
		g := apps.MustGraph(apps.LeNet)
		at := sim.Time(30*sim.Second) + sim.Time(i)*sim.Time(sim.Second)
		if err := c.Submit(g, 2, 3, at); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	completed, _, failed := classify(t, c, res)
	if completed+failed != 10 {
		t.Fatalf("conservation broken: %d + %d != 10", completed, failed)
	}
	st := c.FailoverStats()
	if st.Recoveries == 0 {
		t.Fatal("scheduled recovery never revived the board")
	}
	onRevived := 0
	for _, r := range res {
		if !r.Failed && !r.Rejected && r.Board == 0 && r.Arrival >= sim.Time(30*sim.Second) {
			onRevived++
		}
	}
	if onRevived == 0 {
		t.Fatal("revived board 0 never served post-recovery work")
	}
	states := c.BoardStates()
	if states[0] == health.Dead || states[0] == health.Draining {
		t.Fatalf("board 0 ended the run %v", states[0])
	}
}

// TestFailoverConservation extends the conservation property to board
// deaths: across random workloads, board-level fault schedules, retry
// budgets, hedging, checkpointing, and (on odd seeds) admission
// control, every submission ends as exactly one of {completed,
// rejected, failed} under every dispatch policy — never lost, never
// double-counted — every admission ticket is released exactly once, and
// the failover counters agree with the results.
func TestFailoverConservation(t *testing.T) {
	policies := []Dispatch{RoundRobin, LeastLoaded, LeastPending, RandomBoard}
	for seed := int64(0); seed < 20; seed++ {
		for _, d := range policies {
			seed, d := seed, d
			t.Run(fmt.Sprintf("seed=%d/%s", seed, d), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				boards := 1 + rng.Intn(3)
				var adm *admit.Config
				if seed%2 == 1 {
					arng := rand.New(rand.NewSource(^seed))
					adm = &admit.Config{Capacity: arng.Intn(12), MaxInFlight: 1 + arng.Intn(4)}
				}
				runFailoverScenario(t, rng, boards, d, seed, adm)
			})
		}
	}
}

// FuzzFailoverConservation drives the failover conservation property
// from fuzzed inputs: a seed for the workload and the board fault plan,
// the board count, the dispatch mode, and an admission configuration
// (capacity and in-flight window; both zero disables admission).
func FuzzFailoverConservation(f *testing.F) {
	f.Add(int64(0), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(2), uint8(4), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, boards, mode, capacity, inFlight uint8) {
		var adm *admit.Config
		if capacity != 0 || inFlight != 0 {
			adm = &admit.Config{Capacity: int(capacity % 16), MaxInFlight: int(inFlight % 8)}
		}
		rng := rand.New(rand.NewSource(seed))
		runFailoverScenario(t, rng, 1+int(boards%4), Dispatch(mode%5), seed, adm)
	})
}

// runFailoverScenario draws a random failover run from rng — checkpoint
// and hedging switches, a retry budget, a board fault plan, an optional
// slot fault plan, and a workload — on the given fleet, runs it, and
// checks conservation, exactly-once ticket release, and the failover
// counters.
func runFailoverScenario(t *testing.T, rng *rand.Rand, boards int, d Dispatch, seed int64, adm *admit.Config) {
	t.Helper()
	pool := []string{apps.LeNet, apps.ImageCompression, apps.Rendering3D, apps.OpticalFlow}
	cfg := Config{Dispatch: d, Seed: seed, HV: hv.DefaultConfig(), Admission: adm}
	if rng.Intn(2) == 0 {
		cfg.HV.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 30 * sim.Millisecond}
	}
	hopt := &health.Options{RetryBudget: 1 + rng.Intn(3)}
	if rng.Intn(2) == 0 && boards > 1 {
		hopt.HedgePriority = 5
	}
	cfg.Health = hopt
	var events []faults.BoardEvent
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		b := rng.Intn(boards)
		at := sim.Time(rng.Int63n(int64(3 * sim.Second)))
		var recover sim.Time
		if rng.Intn(2) == 0 {
			recover = at + sim.Time(1+rng.Int63n(int64(10*sim.Second)))
		}
		switch rng.Intn(3) {
		case 0:
			events = append(events, faults.BoardEvent{Kind: faults.BoardCrash, Board: b, At: at, Recover: recover})
		case 1:
			events = append(events, faults.BoardEvent{Kind: faults.BoardHang, Board: b, At: at, Recover: recover})
		default:
			events = append(events, faults.BoardEvent{
				Kind: faults.BoardDegrade, Board: b, At: at,
				Until: at + sim.Time(1+rng.Int63n(int64(5*sim.Second))), Factor: 1.5 + rng.Float64()*6,
			})
		}
	}
	// Half the draws also carry slot faults, so permanent slot failures
	// and CRC retries meet board deaths and the boards rebuilt after them.
	// They come from their own RNG so every seed keeps the workload and
	// board faults it drew before slot faults were added.
	if srng := rand.New(rand.NewSource(seed*2654435761 + 1)); srng.Intn(2) == 0 {
		plan := fmt.Sprintf("dead slot=%d at=%dms", srng.Intn(cfg.HV.Board.Slots), srng.Intn(3000))
		if srng.Intn(2) == 0 {
			plan += fmt.Sprintf("\ncrc prob=%.3f", 0.05+0.1*srng.Float64())
		}
		cfg.HV.Board.NewInjector = faults.MustParsePlan(plan).MustFactory()
		cfg.HV.Board.MaxRetries = 10
	}
	_, c := newFailoverCluster(t, boards, cfg, events)
	n := 6 + rng.Intn(10)
	for i := 0; i < n; i++ {
		g := apps.MustGraph(pool[rng.Intn(len(pool))])
		arrival := sim.Time(rng.Int63n(int64(2 * sim.Second)))
		if err := c.Submit(g, 1+rng.Intn(3), 1+rng.Intn(9), arrival); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("%d results for %d submissions", len(res), n)
	}
	completed, rejected, failed := classify(t, c, res)
	if completed+rejected+failed != n {
		t.Fatalf("conservation broken: %d completed + %d rejected + %d failed != %d", completed, rejected, failed, n)
	}
	as := c.AdmissionStats()
	if adm == nil && rejected != 0 {
		t.Fatalf("no admission configured but %d rejected", rejected)
	}
	if rejected != as.Shed+as.RejectedDeadline+as.RejectedQuota {
		t.Fatalf("%d rejected results vs admission stats %+v", rejected, as)
	}
	if adm != nil && (as.Dispatched != as.Completed || as.Dispatched != as.Admitted-as.Evicted || completed+failed != as.Dispatched) {
		t.Fatalf("tickets not released exactly once: %d completed + %d failed, stats %+v", completed, failed, as)
	}
	st := c.FailoverStats()
	if failed != st.FailedSubmissions {
		t.Fatalf("%d failed results but stats count %d", failed, st.FailedSubmissions)
	}
	for i, r := range res {
		if !r.Failed && !r.Rejected && r.Attempts > hopt.RetryBudget+1 {
			t.Fatalf("result %d used %d attempts with budget %d", i, r.Attempts, hopt.RetryBudget)
		}
	}
}

// TestPickTieBreaksDeterministically is the regression test for
// deterministic board selection: under equal health scores and equal
// load, every load-aware policy must choose the lowest index.
func TestPickTieBreaksDeterministically(t *testing.T) {
	for _, d := range []Dispatch{LeastLoaded, LeastPending} {
		t.Run(d.String(), func(t *testing.T) {
			// Health off: idle boards tie on load.
			_, c := newCluster(t, 4, d)
			if b := c.pickAmong(c.core.Candidates()); b != 0 {
				t.Fatalf("%s picked board %d on an idle fleet, want 0", d, b)
			}
			// Health on: same tie, now through the placeable filter.
			_, ch := newFailoverCluster(t, 4, Config{Dispatch: d, Seed: 8, Health: &health.Options{}}, nil)
			if b := ch.pickAmong(ch.core.Candidates()); b != 0 {
				t.Fatalf("%s picked board %d with health armed, want 0", d, b)
			}
			// A degraded board 0 loses the tie to the first clean board.
			ch.core.Monitor().Tracker(0).MarkDegraded()
			if b := ch.pickAmong(ch.core.Candidates()); b != 1 {
				t.Fatalf("%s picked board %d with board 0 degraded, want 1", d, b)
			}
		})
	}
}

// TestStrandedQueueFailsAtHorizon kills the only board for good while
// admitted work still waits behind the in-flight window: the evacuee
// and every submission queued behind it must come back Failed
// "stranded", with each admission ticket released exactly once.
func TestStrandedQueueFailsAtHorizon(t *testing.T) {
	events := []faults.BoardEvent{{Kind: faults.BoardCrash, Board: 0, At: sim.Time(50 * sim.Millisecond)}}
	cfg := Config{
		Admission: &admit.Config{Capacity: 8, MaxInFlight: 1},
		Health:    &health.Options{RetryBudget: 2},
	}
	_, c := newFailoverCluster(t, 1, cfg, events)
	g := apps.MustGraph(apps.LeNet)
	for i := 0; i < 4; i++ {
		if err := c.Submit(g, 2, 3, sim.Time(i)*sim.Time(100*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Failed || r.FailReason != "stranded" {
			t.Fatalf("result %d = %+v, want Failed stranded", i, r)
		}
		wantBoard, wantAttempts := -1, 0
		if i == 0 {
			wantBoard, wantAttempts = 0, 1 // the evacuee ran on board 0 once
		}
		if r.Board != wantBoard || r.Attempts != wantAttempts {
			t.Fatalf("result %d on board %d after %d attempts, want %d/%d", i, r.Board, r.Attempts, wantBoard, wantAttempts)
		}
	}
	if as := c.AdmissionStats(); as.Dispatched != 4 || as.Completed != 4 {
		t.Fatalf("admission stats %+v, want 4 tickets dispatched and released", as)
	}
	if st := c.FailoverStats(); st.FailedSubmissions != 4 {
		t.Fatalf("FailedSubmissions = %d, want 4", st.FailedSubmissions)
	}
}
