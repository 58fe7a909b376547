package faas

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

func newFailoverPlatform(t *testing.T, cfg Config, events []faults.BoardEvent) *Platform {
	t.Helper()
	if cfg.HV.Board.Slots == 0 {
		cfg.HV = hv.DefaultConfig()
	}
	if cfg.ColdStart == 0 {
		cfg.ColdStart = 500 * sim.Millisecond
	}
	if cfg.ScaleUp == 0 {
		cfg.ScaleUp = 4
	}
	cfg.BoardFaults = events
	_, p := newPlatform(t, cfg)
	return p
}

// classifyInv asserts every result is exactly one of completed,
// rejected, or failed, and returns the counts.
func classifyInv(t *testing.T, res []Result) (completed, rejected, failed int) {
	t.Helper()
	for i, r := range res {
		switch {
		case r.Rejected && r.Failed:
			t.Fatalf("result %d both rejected and failed: %+v", i, r)
		case r.Rejected:
			rejected++
		case r.Failed:
			if r.FailReason == "" {
				t.Fatalf("result %d failed without a reason: %+v", i, r)
			}
			if r.Latency != 0 {
				t.Fatalf("failed result %d has a latency: %+v", i, r)
			}
			failed++
		default:
			if r.Board < 0 || r.Latency <= 0 || r.Attempts < 1 {
				t.Fatalf("completed result %d malformed: %+v", i, r)
			}
			completed++
		}
	}
	return completed, rejected, failed
}

// TestFaaSBoardCrashFailsOver kills the warm board mid-run: in-flight
// invocations must land on the surviving board (paying a fresh cold
// start — the bitstreams died with the board) and nothing may be lost.
func TestFaaSBoardCrashFailsOver(t *testing.T) {
	events := []faults.BoardEvent{{
		Kind: faults.BoardCrash, Board: 0,
		At: sim.Time(300 * sim.Millisecond), Recover: sim.Time(60 * sim.Second),
	}}
	p := newFailoverPlatform(t, Config{Boards: 2, Health: &health.Options{}}, events)
	registerSuite(t, p)
	for i := 0; i < 6; i++ {
		if err := p.Invoke(apps.Rendering3D, 2, sim.Time(i)*sim.Time(100*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("%d results for 6 invocations", len(res))
	}
	completed, _, failed := classifyInv(t, res)
	if completed+failed != 6 {
		t.Fatalf("conservation broken: %d + %d != 6", completed, failed)
	}
	st := p.FailoverStats()
	if st.Deaths == 0 {
		t.Fatal("scheduled crash never registered as a death")
	}
	if st.Redispatched == 0 && failed == 0 {
		t.Fatal("board death affected nothing: no redispatch, no failure")
	}
	retried := 0
	for _, r := range res {
		if !r.Failed && r.Attempts > 1 {
			retried++
			if r.Board != 1 {
				t.Fatalf("failover landed on board %d, want the survivor 1", r.Board)
			}
		}
	}
	if retried == 0 {
		t.Fatal("no invocation survived the crash with a second attempt")
	}
	// Warm affinity put everything on board 0; failover must have paid a
	// second cold start to deploy on the survivor.
	if p.Stats().ColdStarts < 2 {
		t.Fatalf("%d cold starts, want at least 2 (initial + failover)", p.Stats().ColdStarts)
	}
}

// TestFaaSRecoveredBoardColdStartsAgain runs the full breaker cycle on
// a single board: crash, recovery, re-admission — and checks the
// rebuilt board forgot its deployed bitstreams.
func TestFaaSRecoveredBoardColdStartsAgain(t *testing.T) {
	hopt := &health.Options{Tracker: health.Config{
		BackoffBase: 100 * sim.Millisecond,
		BackoffMax:  200 * sim.Millisecond,
	}}
	events := []faults.BoardEvent{{
		Kind: faults.BoardCrash, Board: 0,
		At: sim.Time(200 * sim.Millisecond), Recover: sim.Time(2 * sim.Second),
	}}
	p := newFailoverPlatform(t, Config{Boards: 1, ScaleUp: 1 << 30, Health: hopt}, events)
	registerSuite(t, p)
	p.Invoke(apps.Rendering3D, 2, 0)
	p.Invoke(apps.Rendering3D, 2, sim.Time(30*sim.Second))
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	completed, _, failed := classifyInv(t, res)
	if completed+failed != 2 {
		t.Fatalf("conservation broken: %d + %d != 2", completed, failed)
	}
	st := p.FailoverStats()
	if st.Recoveries == 0 {
		t.Fatal("scheduled recovery never revived the board")
	}
	if completed == 0 {
		t.Fatal("nothing completed on the revived board")
	}
	// The board's bitstream store died with it: the first placement and
	// the first post-rebuild placement are both cold.
	if p.Stats().ColdStarts < 2 {
		t.Fatalf("%d cold starts, want at least 2 (rebuild wipes deployments)", p.Stats().ColdStarts)
	}
	if s := p.BoardStates()[0]; s == health.Dead || s == health.Draining {
		t.Fatalf("board 0 ended the run %v", s)
	}
}

// TestFaaSCheckpointMigration crashes a board mid-item with
// checkpointing on: evacuated snapshots must seed the replacement
// placement and register as migrated work.
func TestFaaSCheckpointMigration(t *testing.T) {
	cfg := Config{Boards: 2, ScaleUp: 1 << 30, Health: &health.Options{}, HV: hv.DefaultConfig()}
	cfg.HV.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 20 * sim.Millisecond}
	events := []faults.BoardEvent{{
		Kind: faults.BoardCrash, Board: 0,
		At: sim.Time(1 * sim.Second), Recover: sim.Time(120 * sim.Second),
	}}
	p := newFailoverPlatform(t, cfg, events)
	if err := p.Register(apps.OpticalFlow, Function{Graph: apps.MustGraph(apps.OpticalFlow), Priority: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.Invoke(apps.OpticalFlow, 2, sim.Time(i)*sim.Time(50*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	completed, _, failed := classifyInv(t, res)
	if completed+failed != 2 {
		t.Fatalf("conservation broken: %d + %d != 2", completed, failed)
	}
	st := p.FailoverStats()
	if st.Redispatched == 0 {
		t.Fatal("crash at 1s redispatched nothing")
	}
	if st.MigratedItems == 0 || st.MigratedWork <= 0 {
		t.Fatalf("no checkpoint migration despite enabled checkpoints: %+v", st)
	}
}

// TestFaaSConservationUnderBoardFaults is the serverless counterpart of
// the cluster conservation property: random fault schedules, retry
// budgets, checkpointing, and (on odd seeds) admission control never
// lose or double-count an invocation, and every admission ticket is
// released exactly once.
func TestFaaSConservationUnderBoardFaults(t *testing.T) {
	pool := []string{apps.LeNet, apps.ImageCompression, apps.Rendering3D}
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			boards := 1 + rng.Intn(3)
			cfg := Config{Boards: boards, ScaleUp: 1 + rng.Intn(4), HV: hv.DefaultConfig()}
			if rng.Intn(2) == 0 {
				cfg.HV.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 30 * sim.Millisecond}
			}
			cfg.Health = &health.Options{RetryBudget: 1 + rng.Intn(3)}
			if seed%2 == 1 {
				arng := rand.New(rand.NewSource(^seed))
				cfg.Admission = &admit.Config{Capacity: arng.Intn(12), MaxInFlight: 1 + arng.Intn(4)}
			}
			var events []faults.BoardEvent
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				b := rng.Intn(boards)
				at := sim.Time(rng.Int63n(int64(2 * sim.Second)))
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
			p := newFailoverPlatform(t, cfg, events)
			registerSuite(t, p)
			n := 4 + rng.Intn(8)
			for i := 0; i < n; i++ {
				fn := pool[rng.Intn(len(pool))]
				at := sim.Time(rng.Int63n(int64(2 * sim.Second)))
				if err := p.Invoke(fn, 1+rng.Intn(3), at); err != nil {
					t.Fatal(err)
				}
			}
			res, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != n {
				t.Fatalf("%d results for %d invocations", len(res), n)
			}
			completed, rejected, failed := classifyInv(t, res)
			if completed+rejected+failed != n {
				t.Fatalf("conservation broken: %d + %d + %d != %d", completed, rejected, failed, n)
			}
			as := p.AdmissionStats()
			if cfg.Admission == nil && rejected != 0 {
				t.Fatalf("no admission configured but %d rejected", rejected)
			}
			if rejected != p.Stats().Rejections || rejected != as.Shed+as.RejectedDeadline+as.RejectedQuota {
				t.Fatalf("%d rejected results vs stats %+v / %+v", rejected, p.Stats(), as)
			}
			if cfg.Admission != nil && (as.Dispatched != as.Completed || as.Dispatched != as.Admitted-as.Evicted || completed+failed != as.Dispatched) {
				t.Fatalf("tickets not released exactly once: %d completed + %d failed, stats %+v", completed, failed, as)
			}
			st := p.FailoverStats()
			if failed != st.FailedSubmissions {
				t.Fatalf("%d failed results but stats count %d", failed, st.FailedSubmissions)
			}
			for i, r := range res {
				if !r.Failed && r.Attempts > cfg.Health.RetryBudget+1 {
					t.Fatalf("result %d used %d attempts with budget %d", i, r.Attempts, cfg.Health.RetryBudget)
				}
			}
		})
	}
}

// TestFaaSStrandedQueueFailsAtHorizon is the serverless counterpart of
// the cluster's stranded-queue regression: with the only board dead for
// good, the evacuee and the invocations queued behind the in-flight
// window all fail as stranded and release their tickets exactly once.
func TestFaaSStrandedQueueFailsAtHorizon(t *testing.T) {
	events := []faults.BoardEvent{{Kind: faults.BoardCrash, Board: 0, At: sim.Time(50 * sim.Millisecond)}}
	p := newFailoverPlatform(t, Config{
		Boards:    1,
		ScaleUp:   1,
		Admission: &admit.Config{Capacity: 8, MaxInFlight: 1},
		Health:    &health.Options{RetryBudget: 2},
	}, events)
	registerSuite(t, p)
	for i := 0; i < 4; i++ {
		if err := p.Invoke(apps.LeNet, 2, sim.Time(i)*sim.Time(100*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results for 4 invocations", len(res))
	}
	for i, r := range res {
		if !r.Failed || r.FailReason != "stranded" {
			t.Fatalf("result %d = %+v, want Failed stranded", i, r)
		}
	}
	if as := p.AdmissionStats(); as.Dispatched != 4 || as.Completed != 4 {
		t.Fatalf("admission stats %+v, want 4 tickets dispatched and released", as)
	}
}

// TestFaaSAvoidsDegradedBoard pins the shared candidate rule: a
// degraded board gets work only when no clean board is placeable, even
// when it would win the placement tie on index.
func TestFaaSAvoidsDegradedBoard(t *testing.T) {
	events := []faults.BoardEvent{{
		Kind: faults.BoardDegrade, Board: 0, Factor: 4,
		At: 0, Until: sim.Time(100 * sim.Second),
	}}
	p := newFailoverPlatform(t, Config{Boards: 2}, events)
	registerSuite(t, p)
	if err := p.Invoke(apps.LeNet, 1, sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Failed || res[0].Board != 1 {
		t.Fatalf("results %+v, want the invocation on the clean board 1", res)
	}
}
