package faas

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

func newPlatform(t *testing.T, cfg Config) (*sim.Engine, *Platform) {
	t.Helper()
	eng := sim.NewEngine()
	p, err := New(eng, cfg, func(board hv.Config) sched.Scheduler {
		return core.New(core.DefaultOptions(), board.Board)
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, p
}

func registerSuite(t *testing.T, p *Platform) {
	t.Helper()
	for _, n := range []string{apps.LeNet, apps.ImageCompression, apps.Rendering3D} {
		if err := p.Register(n, Function{Graph: apps.MustGraph(n), Priority: 3}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInvokeLifecycle(t *testing.T) {
	_, p := newPlatform(t, DefaultConfig())
	registerSuite(t, p)
	for i := 0; i < 6; i++ {
		if err := p.Invoke(apps.LeNet, 2, sim.Time(i)*sim.Time(100*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("%d results", len(res))
	}
	for i, r := range res {
		if r.Function != apps.LeNet || r.Latency <= 0 || r.Items != 2 {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	st := p.Stats()
	if st.Invocations != 6 || st.ColdStarts < 1 || st.ColdStarts+st.WarmStarts != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestColdStartPaidOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 1
	cfg.ScaleUp = 1 << 30 // never scale up
	_, p := newPlatform(t, cfg)
	registerSuite(t, p)
	p.Invoke(apps.LeNet, 1, 0)
	p.Invoke(apps.LeNet, 1, sim.Time(5*sim.Second))
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Cold || res[1].Cold {
		t.Fatalf("cold flags = %v %v, want cold then warm", res[0].Cold, res[1].Cold)
	}
	// The cold invocation pays at least the cold-start delay extra.
	if res[0].Latency < res[1].Latency+cfg.ColdStart-sim.Duration(100*sim.Millisecond) {
		t.Fatalf("cold latency %v vs warm %v (cold start %v)", res[0].Latency, res[1].Latency, cfg.ColdStart)
	}
}

func TestWarmAffinity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 3
	cfg.ScaleUp = 1 << 30
	_, p := newPlatform(t, cfg)
	registerSuite(t, p)
	// Sparse invocations of one function stay on the first (warm) board.
	for i := 0; i < 5; i++ {
		p.Invoke(apps.Rendering3D, 1, sim.Time(i)*sim.Time(10*sim.Second))
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	cold := 0
	for _, r := range res {
		if r.Cold {
			cold++
		}
		if r.Board != res[0].Board {
			t.Fatalf("invocation moved boards despite warm affinity: %+v", res)
		}
	}
	if cold != 1 {
		t.Fatalf("%d cold starts, want 1", cold)
	}
}

func TestScaleUpOpensNewBoards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 3
	cfg.ScaleUp = 2
	_, p := newPlatform(t, cfg)
	registerSuite(t, p)
	// A burst far exceeding one board's scale-up threshold.
	for i := 0; i < 12; i++ {
		p.Invoke(apps.Rendering3D, 3, sim.Time(i)*sim.Time(10*sim.Millisecond))
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	boards := map[int]bool{}
	for _, r := range res {
		boards[r.Board] = true
	}
	if len(boards) < 2 {
		t.Fatalf("burst never scaled beyond one board: %+v", p.Stats())
	}
	if p.Stats().ColdStarts != len(boards) {
		t.Fatalf("cold starts %d != boards used %d", p.Stats().ColdStarts, len(boards))
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{Boards: 0, HV: hv.DefaultConfig()}, nil); err == nil {
		t.Fatal("zero boards accepted")
	}
	cfg := DefaultConfig()
	cfg.ColdStart = -1
	if _, err := New(eng, cfg, func(board hv.Config) sched.Scheduler { return core.New(core.DefaultOptions(), board.Board) }); err == nil {
		t.Fatal("negative cold start accepted")
	}
	_, p := newPlatform(t, DefaultConfig())
	if err := p.Invoke("ghost", 1, 0); err == nil {
		t.Fatal("unknown function accepted")
	}
	if err := p.Register("bad", Function{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if err := p.Register("bad", Function{Graph: apps.MustGraph(apps.LeNet), Priority: 0}); err == nil {
		t.Fatal("zero priority accepted")
	}
	registerSuite(t, p)
	if err := p.Register(apps.LeNet, Function{Graph: apps.MustGraph(apps.LeNet), Priority: 1}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := p.Invoke(apps.LeNet, 0, 0); err == nil {
		t.Fatal("zero items accepted")
	}
	if p.Boards() != 4 {
		t.Fatalf("Boards = %d", p.Boards())
	}
}

func TestMixedFunctionsComplete(t *testing.T) {
	_, p := newPlatform(t, DefaultConfig())
	registerSuite(t, p)
	names := []string{apps.LeNet, apps.ImageCompression, apps.Rendering3D}
	n := 0
	for i := 0; i < 15; i++ {
		if err := p.Invoke(names[i%3], 1+i%4, sim.Time(i)*sim.Time(80*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("%d results for %d invocations", len(res), n)
	}
	// Results sorted by invocation time.
	for i := 1; i < len(res); i++ {
		if res[i].InvokedAt < res[i-1].InvokedAt {
			t.Fatal("results not sorted by invocation time")
		}
	}
}
