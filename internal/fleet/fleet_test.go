package fleet

import (
	"strings"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/hv"
	"nimblock/internal/obs"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

func mkNimblock(b hv.Config) sched.Scheduler {
	return core.New(core.DefaultOptions(), b.Board)
}

func newFleet(t *testing.T, shards, boards int, mut func(*Config)) *Fleet {
	t.Helper()
	cfg := Config{Shards: shards, Boards: boards, HV: hv.DefaultConfig()}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg, mkNimblock)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFleetCompletesStream(t *testing.T) {
	f := newFleet(t, 2, 4, nil)
	res, err := f.Run(workload.NewStream(workload.Spec{Scenario: workload.Stress, Events: 24}, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 24 {
		t.Fatalf("%d results for 24 arrivals", len(res))
	}
	boardsUsed := map[int]bool{}
	for i, r := range res {
		if r.Rejected {
			t.Fatalf("result %d rejected: %s", i, r.RejectReason)
		}
		if r.Board < 0 || r.Board >= 4 || r.Shard < 0 || r.Shard >= 2 {
			t.Fatalf("result %d on shard %d board %d", i, r.Shard, r.Board)
		}
		if r.Response <= 0 {
			t.Fatalf("result %d response %v", i, r.Response)
		}
		boardsUsed[r.Board] = true
	}
	if len(boardsUsed) < 2 {
		t.Fatalf("placement used only boards %v", boardsUsed)
	}
	st := f.Stats()
	if st.Submitted != 24 || st.Completed != 24 || st.Rejected != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Epochs < 1 || st.EventsFired == 0 || st.Makespan <= 0 {
		t.Fatalf("degenerate run stats %+v", st)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	bad := []Config{
		{Shards: 0, Boards: 4, HV: hv.DefaultConfig()},
		{Shards: 5, Boards: 4, HV: hv.DefaultConfig()},
		{Shards: 1, Boards: 2, HV: hv.DefaultConfig(), BoardConfigs: []hv.Config{hv.DefaultConfig()}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, mkNimblock); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Shards: 1, Boards: 1, HV: hv.DefaultConfig()}, nil); err == nil {
		t.Fatal("nil policy factory accepted")
	}
}

func TestFleetShedsAtMaxOutstanding(t *testing.T) {
	f := newFleet(t, 2, 2, func(c *Config) { c.MaxOutstanding = 2 })
	// A rapid burst far beyond two boards' capacity: the cap must shed
	// the excess, and completed+rejected must still conserve.
	spec := workload.Spec{Scenario: workload.RealTime, Events: 40, FixedBatch: 8}
	res, err := f.Run(workload.NewStream(spec, 3))
	if err != nil {
		t.Fatal(err)
	}
	replay := workload.NewStream(spec, 3)
	st := f.Stats()
	if st.Rejected == 0 {
		t.Fatal("no arrivals shed at MaxOutstanding=2")
	}
	if st.Completed+st.Rejected != st.Submitted || st.Submitted != 40 {
		t.Fatalf("conservation broken: %+v", st)
	}
	shed := 0
	for i, r := range res {
		ev, _ := replay.Next()
		if r.Rejected {
			if r.RejectReason != "shed" {
				t.Fatalf("reject reason %q", r.RejectReason)
			}
			// A shed result carries the arrival's identity and nothing
			// a board would have reported.
			want := hv.Result{AppID: -1, App: ev.App, Batch: ev.Batch, Priority: ev.Priority, Arrival: ev.Arrival, FirstLaunch: -1}
			if r.Result != want || r.Shard != -1 || r.Board != -1 {
				t.Fatalf("shed result %d = %+v, want %+v on shard -1 board -1", i, r, want)
			}
			shed++
		}
	}
	if shed != st.Rejected {
		t.Fatalf("%d shed results, stats say %d", shed, st.Rejected)
	}
}

// A board with no usable slot scores +Inf (frontend.PlacementScore), so
// once every slot of every board has died, each arrival is rejected
// unplaceable rather than queued on a board that can never run it.
func TestFleetAllDownRejectsUnplaceable(t *testing.T) {
	dead := hv.DefaultConfig()
	dead.Board.Slots = 2
	dead.Board.NewInjector = faults.MustParsePlan("dead slot=0 at=0s\ndead slot=1 at=0s\n").MustFactory()
	f := newFleet(t, 1, 2, func(c *Config) { c.BoardConfigs = []hv.Config{dead, dead} })
	// Run the first epoch with nothing routed: its barrier sees every
	// slot offline before the first arrival is placed.
	f.sync(f.now.Add(f.cfg.Epoch))
	for g := 0; g < 2; g++ {
		if n := f.Board(g).UsableSlots(); n != 0 {
			t.Fatalf("board %d still has %d usable slots", g, n)
		}
	}
	res, err := f.Run(workload.NewStream(workload.Spec{Scenario: workload.Stress, Events: 4}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results for 4 arrivals", len(res))
	}
	for i, r := range res {
		if !r.Rejected || r.RejectReason != "unplaceable" {
			t.Fatalf("result %d = %+v, want unplaceable rejection", i, r)
		}
	}
}

func TestFleetHeterogeneousPrefersBigBoards(t *testing.T) {
	small := hv.DefaultConfig()
	small.Board.Slots = 3
	big := hv.DefaultConfig()
	big.Board.Slots = 10
	f := newFleet(t, 2, 2, func(c *Config) {
		c.BoardConfigs = []hv.Config{small, big}
	})
	res, err := f.Run(workload.NewStream(workload.Spec{Scenario: workload.Stress, Events: 20}, 11))
	if err != nil {
		t.Fatal(err)
	}
	per := map[int]int{}
	for _, r := range res {
		per[r.Board]++
	}
	if per[1] <= per[0] {
		t.Fatalf("big board got %d of %d placements (small %d)", per[1], len(res), per[0])
	}
}

func TestFleetRegistryMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFleet(t, 2, 4, func(c *Config) { c.Registry = reg })
	if _, err := f.Run(workload.NewStream(workload.Spec{Scenario: workload.Stress, Events: 12}, 9)); err != nil {
		t.Fatal(err)
	}
	if n := f.gauges.submitted.Value(); n != 12 {
		t.Fatalf("fleet_submitted_total = %d", n)
	}
	routed := int64(0)
	for s := range f.engs {
		routed += f.gauges.shardSubmitted[s].Value()
	}
	if routed != 12 {
		t.Fatalf("per-shard submissions sum to %d", routed)
	}
	for s := range f.engs {
		if p := f.gauges.shardPending[s].Value(); p != 0 {
			t.Fatalf("shard %d pending %v after quiescence", s, p)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"fleet_submitted_total", "fleet_shard0_pending", "fleet_shard1_submitted_total", "fleet_epoch_seconds"} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %s:\n%s", want, text)
		}
	}
}

func TestFleetStallAtHorizon(t *testing.T) {
	cfg := Config{Shards: 1, Boards: 1, HV: hv.DefaultConfig()}
	cfg.HV.Horizon = sim.Time(200 * sim.Millisecond)
	f, err := New(cfg, mkNimblock)
	if err != nil {
		t.Fatal(err)
	}
	// Real work cannot finish inside 200 ms of horizon: Run must report
	// the stall instead of spinning epochs forever.
	_, err = f.Run(workload.NewStream(workload.Spec{Scenario: workload.RealTime, Events: 10, FixedBatch: 20}, 2))
	if err == nil || !strings.Contains(err.Error(), "pending at horizon") {
		t.Fatalf("err = %v, want horizon stall", err)
	}
}

func TestFleetDefaultStreamLength(t *testing.T) {
	f := newFleet(t, 2, 2, nil)
	res, err := f.Run(workload.NewStream(workload.Spec{Pool: []string{apps.LeNet}}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != workload.EventsPerSequence {
		t.Fatalf("%d results, want the default %d", len(res), workload.EventsPerSequence)
	}
}

func TestFleetEmptyStream(t *testing.T) {
	f := newFleet(t, 2, 2, nil)
	st := workload.NewStream(workload.Spec{Events: 3}, 1)
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	res, err := f.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("%d results from an exhausted stream", len(res))
	}
}
