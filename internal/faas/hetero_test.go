package faas

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// heteroPlatform builds a platform whose board i gets latency scale
// scales[i], running the energy-aware policy on every board.
func heteroPlatform(t *testing.T, scales []float64) (*sim.Engine, *Platform) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Boards = len(scales)
	cfgs := make([]hv.Config, len(scales))
	for i, s := range scales {
		c := hv.DefaultConfig()
		c.Board.LatencyScale = s
		cfgs[i] = c
	}
	cfg.BoardConfigs = cfgs
	p, err := New(eng, cfg, func(hv.Config) sched.Scheduler { return core.NewEnergy(hv.DefaultConfig().Board) })
	if err != nil {
		t.Fatal(err)
	}
	return eng, p
}

// Regression (mirrors the PR 4/PR 8 tie-break tests): identical boards
// have identical placement scores, so the first cold invocation must
// land on board 0 — equal scores break toward the lowest index.
func TestPlacementTieBreaksByLowestIndex(t *testing.T) {
	_, p := heteroPlatform(t, []float64{1, 1, 1})
	if err := p.Register(apps.LeNet, Function{Graph: apps.MustGraph(apps.LeNet), Priority: 3}); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke(apps.LeNet, 2, 0); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Board != 0 || !res[0].Cold {
		t.Fatalf("first invocation on board %d (cold=%v), want cold start on board 0", res[0].Board, res[0].Cold)
	}
}

// A slow low-index board must lose the cold placement to a fast
// high-index board: the score folds the latency scale in.
func TestPlacementPrefersFasterBoard(t *testing.T) {
	_, p := heteroPlatform(t, []float64{4, 1})
	if err := p.Register(apps.LeNet, Function{Graph: apps.MustGraph(apps.LeNet), Priority: 3}); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke(apps.LeNet, 2, 0); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Board != 1 {
		t.Fatalf("invocation on board %d, want the fast board 1", res[0].Board)
	}
}

// Function tenancy rides invocation dispatch onto the boards, and the
// platform-level reports aggregate per-tenant service and energy.
func TestFunctionTenantAndEnergyWiring(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Boards = 2
	bcfg := hv.DefaultConfig()
	bcfg.Board.StaticWattsPerSlot = 1.5
	bcfg.Board.ActiveWattsPerSlot = 0.5
	cfg.BoardConfigs = []hv.Config{bcfg, bcfg}
	p, err := New(eng, cfg, func(board hv.Config) sched.Scheduler { return core.NewEnergy(board.Board) })
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Register("lenet-a", Function{Graph: apps.MustGraph(apps.LeNet), Priority: 3, Tenant: "alpha", Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("lenet-b", Function{Graph: apps.MustGraph(apps.LeNet), Priority: 3, Tenant: "beta", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		fn := "lenet-a"
		if i%2 == 1 {
			fn = "lenet-b"
		}
		if err := p.Invoke(fn, 2, sim.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	svc := p.TenantServices()
	if svc["alpha"] <= 0 || svc["beta"] <= 0 {
		t.Fatalf("tenant service %v, want both tenants credited", svc)
	}
	es := p.Energy()
	if es.StaticJoules <= 0 || es.ActiveJoules <= 0 {
		t.Fatalf("platform energy %+v, want positive static and active joules", es)
	}
}
