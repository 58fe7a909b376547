package nimblock

import (
	"strings"
	"testing"
	"time"
)

// TestClusterFailoverFacade drives a board crash through the public
// API: a FaultPlan with a board-crash event arms the failure domain
// layer, work fails over to the surviving board, and the per-board
// health states and failover stats are visible.
func TestClusterFailoverFacade(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.FaultPlan = "board-crash board=0 at=300ms recover=60s"
	cfg.Health = &HealthConfig{RetryBudget: 2}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		app, _ := Benchmark(Rendering3D)
		if err := cl.Submit(app, 3, PriorityMedium, time.Duration(i)*100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("%d results", len(res))
	}
	completed, failed := 0, 0
	for i, r := range res {
		switch {
		case r.Failed:
			if r.FailReason == "" {
				t.Fatalf("result %d failed without a reason", i)
			}
			failed++
		default:
			if r.Attempts < 1 || r.Response <= 0 {
				t.Fatalf("result %d malformed: %+v", i, r)
			}
			completed++
		}
	}
	if completed+failed != 6 {
		t.Fatalf("conservation broken: %d + %d != 6", completed, failed)
	}
	st := cl.FailoverStats()
	if st.Deaths == 0 {
		t.Fatal("board-crash in the plan never registered")
	}
	if st.FailedSubmissions != failed {
		t.Fatalf("%d failed results but stats count %d", failed, st.FailedSubmissions)
	}
	states := cl.BoardHealth()
	if len(states) != 2 {
		t.Fatalf("board health = %v", states)
	}
	for b, s := range states {
		switch s {
		case "healthy", "degraded", "recovering":
		default:
			t.Fatalf("board %d ended the run %q", b, s)
		}
	}
}

// TestClusterHedgedDispatchFacade checks the public hedging knob: a
// high-priority submission is duplicated and the loser cancelled.
func TestClusterHedgedDispatchFacade(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Health = &HealthConfig{HedgePriority: 8}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := Benchmark(LeNet)
	if err := cl.Submit(app, 2, PriorityLow, 0); err != nil {
		t.Fatal(err)
	}
	critical, _ := Benchmark(Rendering3D)
	if err := cl.Submit(critical, 2, 9, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	st := cl.FailoverStats()
	if st.Hedged != 1 || st.HedgeCancelled != 1 {
		t.Fatalf("hedged=%d cancelled=%d, want 1/1", st.Hedged, st.HedgeCancelled)
	}
	// No failure layer engaged: BoardHealth still reports, stats clean.
	if st.Deaths != 0 || st.FailedSubmissions != 0 {
		t.Fatalf("phantom failures: %+v", st)
	}
}

// TestPlatformFailoverFacade drives board crashes through the public
// serverless API: the FaultPlan's board events reach the platform,
// every invocation ends exactly once, and work lost with its board
// surfaces as Failed results.
func TestPlatformFailoverFacade(t *testing.T) {
	run := func(boards int, plan string) ([]InvocationResult, PlatformStats) {
		t.Helper()
		cfg := DefaultServerlessConfig()
		cfg.Boards = boards
		cfg.FaultPlan = plan
		cfg.Horizon = time.Hour
		pl, err := NewPlatform(cfg)
		if err != nil {
			t.Fatal(err)
		}
		app, _ := Benchmark(Rendering3D)
		if err := pl.Register("render", app, PriorityMedium); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := pl.Invoke("render", 3, time.Duration(i)*100*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		res, err := pl.Run()
		if err != nil {
			t.Fatal(err)
		}
		completed, rejected, failed := 0, 0, 0
		for i, r := range res {
			switch {
			case r.Rejected:
				rejected++
			case r.Failed:
				if r.FailReason == "" || r.Latency != 0 {
					t.Fatalf("result %d failed malformed: %+v", i, r)
				}
				failed++
			default:
				if r.Latency <= 0 {
					t.Fatalf("result %d completed malformed: %+v", i, r)
				}
				completed++
			}
		}
		if completed+rejected+failed != 6 || len(res) != 6 {
			t.Fatalf("conservation broken: %d completed + %d rejected + %d failed of %d results, 6 invoked",
				completed, rejected, failed, len(res))
		}
		return res, pl.Stats()
	}

	// Two boards, one crashes mid-run: its invocations move to the
	// survivor, and each move is one more placement than invocations.
	_, st := run(2, "board-crash board=0 at=300ms recover=60s")
	if st.ColdStarts+st.WarmStarts <= st.Invocations {
		t.Fatalf("the crash moved no invocation: %+v", st)
	}

	// A lone board that never recovers strands what it held.
	res, _ := run(1, "board-crash board=0 at=300ms")
	stranded := 0
	for _, r := range res {
		if r.Failed && r.FailReason == "stranded" {
			stranded++
		}
	}
	if stranded == 0 {
		t.Fatalf("nothing stranded on a dead lone board: %+v", res)
	}
}

// TestSystemRefusesBoardFaults checks that a lone System rejects the
// FaultPlan lines only a multi-board front-end can act on.
func TestSystemRefusesBoardFaults(t *testing.T) {
	for _, line := range []string{
		"board-crash board=0 at=1s",
		"board-hang board=0 at=1s",
		"board-degrade board=0 from=1s factor=2",
	} {
		cfg := DefaultConfig()
		cfg.FaultPlan = "crc prob=0.1\n" + line
		_, err := NewSystem(cfg)
		if err == nil || !strings.Contains(err.Error(), "NewCluster") || !strings.Contains(err.Error(), "NewPlatform") {
			t.Fatalf("%q: err = %v, want a pointer to NewCluster/NewPlatform", line, err)
		}
	}
}
