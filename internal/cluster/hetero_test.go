package cluster

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// heteroCluster builds a fleet whose board i gets latency scale
// scales[i] (1 = reference speed) on an otherwise default config.
func heteroCluster(t *testing.T, scales []float64, d Dispatch) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	cfgs := make([]hv.Config, len(scales))
	for i, s := range scales {
		c := hv.DefaultConfig()
		c.Board.LatencyScale = s
		cfgs[i] = c
	}
	cfg := Config{Boards: len(scales), HV: hv.DefaultConfig(), BoardConfigs: cfgs, Dispatch: d, Seed: 1}
	cl, err := New(eng, cfg, func(b hv.Config) sched.Scheduler { return core.NewEnergy(b.Board) })
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl
}

// Regression (mirrors the PR 4/PR 8 tie-break tests): identical boards
// produce identical hetero scores, and every equal-score decision must
// break toward the lowest board index — the first submission always
// lands on board 0 no matter the fleet size.
func TestHeteroAwareTieBreaksByLowestIndex(t *testing.T) {
	for _, boards := range []int{2, 3, 5} {
		_, c := heteroCluster(t, make2(boards, 1), HeteroAware)
		if err := c.Submit(apps.MustGraph(apps.LeNet), 2, 3, 0); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Board != 0 {
			t.Fatalf("%d identical boards: first submission on board %d, want 0", boards, res[0].Board)
		}
	}
}

func make2(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// An empty slow board must lose to an empty fast board even when the
// slow board has the lower index: capability, not position, decides.
func TestHeteroAwarePrefersFasterBoard(t *testing.T) {
	_, c := heteroCluster(t, []float64{3, 1}, HeteroAware)
	if err := c.Submit(apps.MustGraph(apps.LeNet), 2, 3, 0); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Board != 1 {
		t.Fatalf("submission on board %d, want the fast board 1", res[0].Board)
	}
}

// Sequential arrivals under load must spread: once the fast board holds
// outstanding work, a slow-but-idle board can win the score.
func TestHeteroAwareBalancesUnderLoad(t *testing.T) {
	_, c := heteroCluster(t, []float64{1.2, 1}, HeteroAware)
	for i := 0; i < 8; i++ {
		if err := c.Submit(apps.MustGraph(apps.LeNet), 6, 3, sim.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]int{}
	for _, r := range res {
		used[r.Board]++
	}
	if len(used) != 2 {
		t.Fatalf("board usage %v, want both boards used", used)
	}
}

// Tenant identity and weight must ride dispatch onto the boards: the
// fleet-level service report attributes fabric time per tenant.
func TestClusterTenantServiceWiring(t *testing.T) {
	_, c := heteroCluster(t, []float64{1, 1}, HeteroAware)
	for i := 0; i < 4; i++ {
		tenant := "alpha"
		if i%2 == 1 {
			tenant = "beta"
		}
		err := c.SubmitWith(apps.MustGraph(apps.LeNet), 3, 3, 0, SubmitOptions{Tenant: tenant, Weight: 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	svc := c.TenantServices()
	if svc["alpha"] <= 0 || svc["beta"] <= 0 {
		t.Fatalf("tenant service %v, want both tenants credited", svc)
	}
	es := c.Energy()
	if es.TotalJoules() != 0 {
		t.Fatalf("no power model configured but energy %v J", es.TotalJoules())
	}
}

// With a power model on every board, the fleet energy report aggregates
// per-board integrals.
func TestClusterEnergyAggregates(t *testing.T) {
	eng := sim.NewEngine()
	cfgs := make([]hv.Config, 2)
	for i := range cfgs {
		c := hv.DefaultConfig()
		c.Board.StaticWattsPerSlot = 1
		c.Board.ActiveWattsPerSlot = 2
		cfgs[i] = c
	}
	cfg := Config{Boards: 2, HV: hv.DefaultConfig(), BoardConfigs: cfgs, Dispatch: RoundRobin, Seed: 1}
	cl, err := New(eng, cfg, func(b hv.Config) sched.Scheduler { return core.NewEnergy(b.Board) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := cl.Submit(apps.MustGraph(apps.LeNet), 2, 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	es := cl.Energy()
	if es.StaticJoules <= 0 || es.ActiveJoules <= 0 {
		t.Fatalf("fleet energy %+v, want positive static and active joules", es)
	}
	one := cl.Board(0).Energy()
	if es.ActiveJoules <= one.ActiveJoules {
		t.Fatalf("fleet active %v J not above single board %v J", es.ActiveJoules, one.ActiveJoules)
	}
}
