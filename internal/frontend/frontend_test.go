package frontend

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nimblock/internal/admit"
	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/fpga"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// job is one submission of the minimal test front-end.
type job struct {
	g        *taskgraph.Graph
	batch    int
	priority int
}

// testFront is the smallest front-end the core supports: least-loaded
// placement among the candidates, untagged submission.
type testFront struct {
	eng  *sim.Engine
	core *Core
	jobs []job
}

func mkNimblock(b hv.Config) sched.Scheduler { return core.New(core.DefaultOptions(), b.Board) }

func newFront(t *testing.T, cfg Config, hooks Hooks) *testFront {
	t.Helper()
	f := &testFront{eng: sim.NewEngine()}
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	if cfg.HV.Board.Slots == 0 {
		cfg.HV = hv.DefaultConfig()
	}
	if hooks.Place == nil {
		hooks.Place = f.place
	}
	c, err := New([]*sim.Engine{f.eng}, cfg, mkNimblock, hooks)
	if err != nil {
		t.Fatal(err)
	}
	f.core = c
	return f
}

func (f *testFront) place(idx int, cands []int) (int, int64, error) {
	best := cands[0]
	for _, b := range cands[1:] {
		if f.core.Board(b).OutstandingEstimate() < f.core.Board(best).OutstandingEstimate() {
			best = b
		}
	}
	j := f.jobs[idx]
	id, err := f.core.Board(best).SubmitID(j.g, j.batch, j.priority, f.eng.Now())
	return best, id, err
}

func (f *testFront) submit(name string, batch, priority int, at sim.Time) {
	idx := f.core.Add(name, batch, priority, at)
	j := job{g: apps.MustGraph(name), batch: batch, priority: priority}
	f.jobs = append(f.jobs, j)
	f.eng.At(at, func() {
		f.core.Arrive(idx, j.g, j.batch, admit.Request{Priority: j.priority})
		f.core.Pump()
	})
}

func TestNewValidation(t *testing.T) {
	place := func(int, []int) (int, int64, error) { return -1, 0, nil }
	crash := []faults.BoardEvent{{Kind: faults.BoardCrash, Board: 0}}
	cases := []struct {
		name   string
		shards int
		cfg    Config
		mk     func(hv.Config) sched.Scheduler
		want   string
	}{
		{"no shards", 0, Config{Name: "x", Boards: 1}, mkNimblock, "x: need at least one shard, got 0"},
		{"zero boards", 1, Config{Name: "x"}, mkNimblock, "x: need at least one board, got 0"},
		{"boards < shards", 4, Config{Name: "x", Boards: 3}, mkNimblock, "x: 3 boards across 4 shards"},
		{"nil factory", 1, Config{Name: "x", Boards: 1}, nil, "x: nil policy factory"},
		{"board configs", 1, Config{Name: "x", Boards: 2, BoardConfigs: []hv.Config{hv.DefaultConfig()}}, mkNimblock, "x: 1 board configs for 2 boards"},
		{"admission", 1, Config{Name: "x", Boards: 1, Admission: &admit.Config{Capacity: -1}}, mkNimblock, "x: admit:"},
		{"board fault", 1, Config{Name: "x", Boards: 1, BoardFaults: []faults.BoardEvent{{Kind: faults.BoardCrash, Board: 3}}}, mkNimblock, "x: health:"},
		{"sharded admission", 2, Config{Name: "x", Boards: 2, Admission: &admit.Config{}}, mkNimblock, "x: admission and board health need a single shard, got 2"},
		{"sharded health", 2, Config{Name: "x", Boards: 2, Health: &health.Options{}}, mkNimblock, "x: admission and board health need a single shard, got 2"},
		{"sharded board faults", 2, Config{Name: "x", Boards: 2, BoardFaults: crash}, mkNimblock, "x: admission and board health need a single shard, got 2"},
	}
	for _, tc := range cases {
		tc.cfg.HV = hv.DefaultConfig()
		engs := make([]*sim.Engine, tc.shards)
		for s := range engs {
			engs[s] = sim.NewEngine()
		}
		_, err := New(engs, tc.cfg, tc.mk, Hooks{Place: place})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestBoardsDealtInContiguousBlocks pins the shard dealing: 10 boards
// over 4 shards land 3, 3, 2, 2 in board order, and each board's
// events fire on its own shard's engine.
func TestBoardsDealtInContiguousBlocks(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
	c, err := New(engs, Config{Name: "x", Boards: 10, HV: hv.DefaultConfig()}, mkNimblock, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
	for b, s := range want {
		if got := c.Shard(b); got != s {
			t.Fatalf("board %d on shard %d, want %d", b, got, s)
		}
	}
	g := apps.MustGraph(apps.LeNet)
	for b := range want {
		id, err := c.Board(b).SubmitID(g, 1, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Bind(b, id, c.Add(apps.LeNet, 1, 3, 0), nil)
	}
	for s, eng := range engs {
		eng.Run()
		for b, bs := range want {
			if done := c.Board(b).PendingCount() == 0; done != (bs <= s) {
				t.Fatalf("after draining shards 0..%d, board %d (shard %d) done = %v", s, b, bs, done)
			}
		}
	}
	outs, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	for idx, o := range outs {
		if o.Board != idx || o.Rejected || o.Result.App != apps.LeNet {
			t.Fatalf("outcome %d = %+v, want board %d completed", idx, o, idx)
		}
	}
}

func TestPlacementScore(t *testing.T) {
	mk := func(slots int, scale float64) *fpga.Board {
		cfg := fpga.DefaultConfig()
		cfg.Slots, cfg.LatencyScale = slots, scale
		b, err := fpga.NewBoard(sim.NewEngine(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := mk(4, 1)
	if got := PlacementScore(ref, 1); got != 0.5 {
		t.Fatalf("score(4 slots, scale 1, load 1) = %v, want 0.5", got)
	}
	if PlacementScore(mk(4, 2), 0) <= PlacementScore(ref, 0) {
		t.Fatal("a slower empty board must rank behind a faster one")
	}
	if PlacementScore(mk(8, 1), 0) >= PlacementScore(ref, 0) {
		t.Fatal("a wider empty board must rank ahead of a narrower one")
	}
	for s := 0; s < 4; s++ {
		if err := ref.SetOffline(s); err != nil {
			t.Fatal(err)
		}
	}
	if !math.IsInf(PlacementScore(ref, 0), 1) {
		t.Fatal("a board with no usable slots must rank last")
	}
}

// TestCandidatesHealthRule pins the one candidate rule: every board with
// the failure domain off; armed, the placeable boards with the best
// health score, so degraded boards get work only when no clean board
// is placeable.
func TestCandidatesHealthRule(t *testing.T) {
	off := newFront(t, Config{Boards: 3}, Hooks{})
	if got := fmt.Sprint(off.core.Candidates()); got != "[0 1 2]" {
		t.Fatalf("health off: candidates %s, want every board", got)
	}
	if off.core.Monitor() != nil || off.core.BoardStates() != nil || off.core.FailoverStats() != (health.Stats{}) {
		t.Fatal("health off must expose no monitor, states, or stats")
	}
	f := newFront(t, Config{Boards: 3, Health: &health.Options{}}, Hooks{})
	mon := f.core.Monitor()
	mon.Tracker(0).MarkDegraded()
	if got := fmt.Sprint(f.core.Candidates()); got != "[1 2]" {
		t.Fatalf("board 0 degraded: candidates %s, want [1 2]", got)
	}
	mon.Tracker(1).MarkDead()
	mon.Tracker(2).MarkDead()
	if got := fmt.Sprint(f.core.Candidates()); got != "[0]" {
		t.Fatalf("only degraded board 0 placeable: candidates %s, want [0]", got)
	}
	mon.Tracker(0).MarkDead()
	if got := f.core.Candidates(); len(got) != 0 {
		t.Fatalf("every board dead: candidates %v, want none", got)
	}
}

// TestRebuildSeesOutgoingBoard pins the rebuild order: when a dead board
// is rebuilt, the policy factory runs while Board(i) still returns the
// outgoing generation, and Lost runs once the new one is in place.
func TestRebuildSeesOutgoingBoard(t *testing.T) {
	var f *testFront
	var atFactory []*hv.Hypervisor
	var lost []int
	eng := sim.NewEngine()
	cfg := Config{
		Name: "test", Boards: 2, HV: hv.DefaultConfig(),
		BoardFaults: []faults.BoardEvent{{Kind: faults.BoardCrash, Board: 1, At: sim.Time(300 * sim.Millisecond)}},
	}
	f = &testFront{eng: eng}
	c, err := New([]*sim.Engine{eng}, cfg, func(b hv.Config) sched.Scheduler {
		if f.core != nil {
			atFactory = append(atFactory, f.core.Board(1))
		}
		return mkNimblock(b)
	}, Hooks{Place: f.place, Lost: func(b int) { lost = append(lost, b) }})
	if err != nil {
		t.Fatal(err)
	}
	f.core = c
	before := c.Board(1)
	for i := 0; i < 4; i++ {
		f.submit(apps.LeNet, 2, 3, sim.Time(i)*sim.Time(50*sim.Millisecond))
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(atFactory) != 1 || atFactory[0] != before {
		t.Fatalf("factory saw %v during the rebuild, want the outgoing board", atFactory)
	}
	if c.Board(1) == before || fmt.Sprint(lost) != "[1]" {
		t.Fatalf("board 1 not rebuilt (lost %v)", lost)
	}
}

// TestPlaceErrorSurfaced checks a submit failure is reported from Run,
// never panicked, and frees the admission slot the dispatch held.
func TestPlaceErrorSurfaced(t *testing.T) {
	boom := errors.New("boom")
	f := newFront(t, Config{Boards: 1, Admission: &admit.Config{MaxInFlight: 1}}, Hooks{
		Place: func(int, []int) (int, int64, error) { return 0, 0, boom },
	})
	f.submit(apps.LeNet, 1, 3, 0)
	if _, err := f.core.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the submit failure", err)
	}
	if as := f.core.AdmissionStats(); as.Dispatched != 1 || as.Completed != 1 {
		t.Fatalf("admission stats %+v, want the failed dispatch's ticket released", as)
	}
}

// TestHooksSeeEveryRetireAndEvacuee drives a crash with hooks armed:
// Retired fires once per board retirement with the right submission,
// and an Evacuated claim keeps the evacuee out of failover.
func TestHooksSeeEveryRetireAndEvacuee(t *testing.T) {
	retired := map[int]int{}
	claimed := 0
	var f *testFront
	f = newFront(t, Config{
		Boards: 2, Health: &health.Options{},
		BoardFaults: []faults.BoardEvent{{Kind: faults.BoardCrash, Board: 0, At: sim.Time(300 * sim.Millisecond)}},
	}, Hooks{
		Retired: func(_ int, _ int64, idx int) { retired[idx]++ },
		Evacuated: func(_, idx int, ev *hv.Evacuee, t *admit.Ticket) (*admit.Ticket, bool) {
			if idx == 0 {
				claimed++
				return nil, true
			}
			return t, false
		},
	})
	for i := 0; i < 4; i++ {
		f.submit(apps.OpticalFlow, 2, 3, 0)
	}
	outs, err := f.core.Run()
	if err == nil {
		t.Fatalf("a claimed evacuee never settles, so Run must fail conservation; got %+v", outs)
	}
	if claimed != 1 {
		t.Fatalf("Evacuated claimed %d evacuees, want submission 0 once", claimed)
	}
	for idx, n := range retired {
		if n != 1 {
			t.Fatalf("submission %d retired %d times", idx, n)
		}
	}
}

// TestCoreConservation is the core's own conservation property: across
// random workloads, board fault plans, retry budgets, checkpointing,
// and (on odd seeds) admission, every submission index gets exactly one
// outcome, every admission ticket is released exactly once, completed
// outcomes are re-based on the original arrival, and the failover
// counters agree with the outcomes.
func TestCoreConservation(t *testing.T) {
	pool := []string{apps.LeNet, apps.ImageCompression, apps.Rendering3D, apps.OpticalFlow}
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			boards := 1 + rng.Intn(3)
			cfg := Config{Boards: boards, HV: hv.DefaultConfig(), Seed: seed}
			if rng.Intn(2) == 0 {
				cfg.HV.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 30 * sim.Millisecond}
			}
			budget := 1 + rng.Intn(3)
			cfg.Health = &health.Options{RetryBudget: budget}
			if seed%2 == 1 {
				cfg.Admission = &admit.Config{Capacity: rng.Intn(12), MaxInFlight: 1 + rng.Intn(4)}
			}
			kinds := []faults.Kind{faults.BoardCrash, faults.BoardHang, faults.BoardDegrade}
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				ev := faults.BoardEvent{Kind: kinds[rng.Intn(3)], Board: rng.Intn(boards), At: sim.Time(rng.Int63n(int64(3 * sim.Second)))}
				if ev.Kind == faults.BoardDegrade {
					ev.Until, ev.Factor = ev.At+sim.Time(sim.Second), 4
				} else if rng.Intn(2) == 0 {
					ev.Recover = ev.At + sim.Time(1+rng.Int63n(int64(10*sim.Second)))
				}
				cfg.BoardFaults = append(cfg.BoardFaults, ev)
			}
			f := newFront(t, cfg, Hooks{})
			n := 6 + rng.Intn(10)
			arrivals := make([]sim.Time, n)
			for i := range arrivals {
				arrivals[i] = sim.Time(rng.Int63n(int64(2 * sim.Second)))
				f.submit(pool[rng.Intn(len(pool))], 1+rng.Intn(3), 1+rng.Intn(9), arrivals[i])
			}
			outs, err := f.core.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != n {
				t.Fatalf("%d outcomes for %d submissions", len(outs), n)
			}
			var completed, rejected, failed int
			for i, o := range outs {
				switch {
				case o.Rejected:
					rejected++
				case o.Failed:
					failed++
					if o.FailReason == "" || o.Result.AppID != -1 || o.Attempts > budget+1 {
						t.Fatalf("outcome %d failed malformed: %+v", i, o)
					}
				default:
					completed++
					if o.Attempts < 1 || o.Attempts > budget+1 {
						t.Fatalf("outcome %d completed after %d attempts: %+v", i, o.Attempts, o)
					}
					// Work admitted straight to a board, or re-dispatched
					// after a death, is timed from its original arrival.
					rebased := o.Attempts > 1 || cfg.Admission == nil
					if rebased && (o.Result.Arrival != arrivals[i] || o.Result.Response != o.Result.Retire.Sub(arrivals[i])) {
						t.Fatalf("outcome %d not timed from its arrival %v: %+v", i, arrivals[i], o)
					}
				}
			}
			if completed+rejected+failed != n {
				t.Fatalf("conservation broken: %d + %d + %d != %d", completed, rejected, failed, n)
			}
			if st := f.core.FailoverStats(); st.FailedSubmissions != failed {
				t.Fatalf("%d failed outcomes, stats count %d", failed, st.FailedSubmissions)
			}
			as := f.core.AdmissionStats()
			if rejected != as.Shed+as.RejectedDeadline+as.RejectedQuota {
				t.Fatalf("%d rejected outcomes vs stats %+v", rejected, as)
			}
			if cfg.Admission != nil && (as.Dispatched != as.Completed || completed+failed != as.Dispatched) {
				t.Fatalf("tickets not released exactly once: %d completed + %d failed, stats %+v", completed, failed, as)
			}
			if len(f.core.BoardStates()) != boards || f.core.Energy().UsableSlotSeconds <= 0 || f.core.TenantServices() == nil {
				t.Fatal("aggregate accessors broken")
			}
		})
	}
}
