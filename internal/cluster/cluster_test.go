package cluster

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sim"
)

func mkNimblock(cfg hv.Config) func(hv.Config) sched.Scheduler {
	return func(b hv.Config) sched.Scheduler { return core.New(core.DefaultOptions(), b.Board) }
}

func newCluster(t *testing.T, boards int, d Dispatch) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := Config{Boards: boards, HV: hv.DefaultConfig(), Dispatch: d, Seed: 1}
	c, err := New(eng, cfg, mkNimblock(cfg.HV))
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func submitMix(t *testing.T, c *Cluster, n int) {
	t.Helper()
	names := []string{apps.LeNet, apps.ImageCompression, apps.Rendering3D, apps.OpticalFlow}
	for i := 0; i < n; i++ {
		g := apps.MustGraph(names[i%len(names)])
		if err := c.Submit(g, 3, 3, sim.Time(i)*sim.Time(100*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterCompletesAllApps(t *testing.T) {
	for _, d := range []Dispatch{RoundRobin, LeastLoaded, LeastPending, RandomBoard} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			_, c := newCluster(t, 3, d)
			submitMix(t, c, 9)
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 9 {
				t.Fatalf("%d results", len(res))
			}
			for _, r := range res {
				if r.Board < 0 || r.Board >= 3 {
					t.Fatalf("bad board %d", r.Board)
				}
				if r.Response <= 0 {
					t.Fatalf("bad response %v", r.Response)
				}
				if r.Attempts != 1 {
					t.Fatalf("completed with %d attempts and no failure domain, want 1", r.Attempts)
				}
			}
		})
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	_, c := newCluster(t, 3, RoundRobin)
	submitMix(t, c, 9)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	perBoard := map[int]int{}
	for _, r := range res {
		perBoard[r.Board]++
	}
	for b := 0; b < 3; b++ {
		if perBoard[b] != 3 {
			t.Fatalf("board %d got %d apps, want 3 (%v)", b, perBoard[b], perBoard)
		}
	}
}

func TestLeastLoadedAvoidsBusyBoard(t *testing.T) {
	eng, c := newCluster(t, 2, LeastLoaded)
	// A huge job lands first; it must go somewhere, and the following
	// burst of short jobs must avoid that board.
	if err := c.Submit(apps.MustGraph(apps.DigitRecognition), 10, 3, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Submit(apps.MustGraph(apps.LeNet), 2, 3, sim.Time(sim.Second)+sim.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = eng
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	var drBoard int
	for _, r := range res {
		if r.App == apps.DigitRecognition {
			drBoard = r.Board
		}
	}
	for _, r := range res {
		if r.App == apps.LeNet && r.Board == drBoard {
			t.Fatalf("short job placed on the loaded board %d", drBoard)
		}
	}
}

func TestMoreBoardsHelpUnderLoad(t *testing.T) {
	run := func(boards int) sim.Duration {
		eng := sim.NewEngine()
		cfg := Config{Boards: boards, HV: hv.DefaultConfig(), Dispatch: LeastLoaded}
		c, err := New(eng, cfg, func(hv.Config) sched.Scheduler { return fcfs.New() })
		if err != nil {
			t.Fatal(err)
		}
		// A burst of medium jobs that oversubscribes one board.
		for i := 0; i < 8; i++ {
			if err := c.Submit(apps.MustGraph(apps.OpticalFlow), 5, 3, sim.Time(i)*sim.Time(50*sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var total sim.Duration
		for _, r := range res {
			total += r.Response
		}
		return total
	}
	one, four := run(1), run(4)
	if four >= one {
		t.Fatalf("4 boards (%v) not faster than 1 (%v)", four, one)
	}
}

func TestClusterValidation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{Boards: 0, HV: hv.DefaultConfig()}
	if _, err := New(eng, cfg, mkNimblock(cfg.HV)); err == nil {
		t.Fatal("zero boards accepted")
	}
	cfg.Boards = 1
	if _, err := New(eng, cfg, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	c, err := New(eng, cfg, mkNimblock(cfg.HV))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(nil, 1, 1, 0); err == nil {
		t.Fatal("nil graph accepted")
	}
	if c.Boards() != 1 || c.Board(0) == nil {
		t.Fatal("accessors broken")
	}
}

func TestDispatchStrings(t *testing.T) {
	for _, d := range []Dispatch{RoundRobin, LeastLoaded, LeastPending, RandomBoard, Dispatch(99)} {
		if d.String() == "" {
			t.Fatalf("empty name for %d", int(d))
		}
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() []Result {
		_, c := newCluster(t, 2, RandomBoard)
		submitMix(t, c, 6)
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHeterogeneousCluster(t *testing.T) {
	eng := sim.NewEngine()
	small := hv.DefaultConfig()
	small.Board.Slots = 4
	big := hv.DefaultConfig()
	big.Board.Slots = 10
	cfg := Config{
		Boards:       2,
		HV:           hv.DefaultConfig(),
		BoardConfigs: []hv.Config{small, big},
		Dispatch:     LeastLoaded,
	}
	c, err := New(eng, cfg, mkNimblock(cfg.HV))
	if err != nil {
		t.Fatal(err)
	}
	if c.Board(0).NumSlots() != 4 || c.Board(1).NumSlots() != 10 {
		t.Fatalf("board sizes %d/%d", c.Board(0).NumSlots(), c.Board(1).NumSlots())
	}
	submitMix(t, c, 8)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("%d results", len(res))
	}
}

func TestHeterogeneousConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		Boards:       3,
		HV:           hv.DefaultConfig(),
		BoardConfigs: []hv.Config{hv.DefaultConfig()},
	}
	if _, err := New(eng, cfg, mkNimblock(cfg.HV)); err == nil {
		t.Fatal("mismatched BoardConfigs length accepted")
	}
}
