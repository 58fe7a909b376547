package nimblock

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseBoardSpec(t *testing.T) {
	b, err := ParseBoardSpec("slots=8 scale=1.25 static=2.5 active=1.5")
	if err != nil {
		t.Fatal(err)
	}
	if b.Slots != 8 || b.LatencyScale != 1.25 || b.StaticWattsPerSlot != 2.5 || b.ActiveWattsPerSlot != 1.5 {
		t.Fatalf("parsed %+v", b)
	}
	if got := b.String(); got != "slots=8 scale=1.25 static=2.5 active=1.5" {
		t.Fatalf("round-trip %q", got)
	}
	for _, bad := range []string{"", "slots=0", "slots=100000000000", "slots=4 watts=3", "slots=4 scale=-1", "slots=4 slots=5"} {
		if _, err := ParseBoardSpec(bad); err == nil {
			t.Errorf("ParseBoardSpec(%q) accepted", bad)
		}
	}
}

func TestAlgorithmsIncludeEnergy(t *testing.T) {
	for _, a := range Algorithms() {
		if a == AlgoNimblockEnergy {
			return
		}
	}
	t.Fatal("AlgoNimblockEnergy missing from Algorithms()")
}

// A system with a powered board reports a positive, split energy total;
// without a power model every stat is zero.
func TestSystemEnergyAccounting(t *testing.T) {
	run := func(board *BoardSpec) EnergyStats {
		cfg := DefaultConfig()
		cfg.Algorithm = AlgoNimblockEnergy
		cfg.Board = board
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		app, _ := Benchmark(LeNet)
		if err := sys.SubmitTenant(app, 4, PriorityMedium, 0, "tenant-a", 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.SubmitTenant(app, 4, PriorityMedium, 0, "tenant-b", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.Energy()
	}

	es := run(&BoardSpec{Slots: 6, StaticWattsPerSlot: 2, ActiveWattsPerSlot: 1})
	if es.StaticJoules <= 0 || es.ActiveJoules <= 0 || es.TotalJoules() != es.StaticJoules+es.ActiveJoules {
		t.Fatalf("powered board energy %+v", es)
	}
	// Static joules must be priced at the makespan (seconds of work),
	// not the ~55-hour horizon the clock ends Run at: the workload
	// here takes well under a minute, so 6 slots x 2 W bounds static
	// energy under 720 J (horizon pricing would exceed 2e6 J).
	if es.StaticJoules > 720 {
		t.Fatalf("static joules %v priced over the idle horizon tail", es.StaticJoules)
	}
	if es.OccupiedSlotSeconds <= 0 || es.UsableSlotSeconds < es.OccupiedSlotSeconds {
		t.Fatalf("slot-time integrals %+v", es)
	}

	// Without a power model the joule fields are zero; the slot-time
	// integrals still accrue (they are free int64 counters).
	if es := run(nil); es.TotalJoules() != 0 || es.OccupiedSlotSeconds <= 0 {
		t.Fatalf("unpowered board energy %+v, want zero joules", es)
	}
}

// SubmitTenant credits service to each tenant, and equal tenants with
// identical work end near-perfect fairness once everything retires.
func TestSystemTenantFairness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgoNimblockEnergy
	cfg.Board = &BoardSpec{Slots: 6}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := Benchmark(LeNet)
	for i := 0; i < 6; i++ {
		tenant := "tenant-a"
		if i%2 == 1 {
			tenant = "tenant-b"
		}
		if err := sys.SubmitTenant(app, 3, PriorityMedium, time.Duration(i)*50*time.Millisecond, tenant, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	svc := sys.TenantServices()
	if svc["tenant-a"] <= 0 || svc["tenant-b"] <= 0 {
		t.Fatalf("tenant services %v", svc)
	}
	if j := sys.FairnessIndex(); j < 0.99 || j > 1 {
		t.Fatalf("fairness %v over %v, want ~1", j, svc)
	}
}

// Config.Board must survive validation: a meaningless spec fails
// NewSystem instead of silently misconfiguring the board.
func TestSystemBoardSpecValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Board = &BoardSpec{Slots: 0}
	if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "slot") {
		t.Fatalf("invalid board spec error = %v", err)
	}
}

// A negative, NaN or infinite tenant weight is refused where it enters,
// by every front-end, and leaves nothing behind: the same front-end then
// runs its valid submissions to completion. Weight 0 means 1.
func TestTenantWeightValidation(t *testing.T) {
	app, _ := Benchmark(LeNet)
	for _, tc := range []struct {
		name   string
		weight float64
	}{{"negative", -1}, {"NaN", math.NaN()}, {"+Inf", math.Inf(1)}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Algorithm = AlgoNimblockEnergy
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.SubmitTenant(app, 2, PriorityMedium, 0, "bad", tc.weight); err == nil {
				t.Error("System.SubmitTenant accepted the weight")
			}
			if err := sys.SubmitTenant(app, 2, PriorityMedium, 0, "good", 0); err != nil {
				t.Fatal(err)
			}
			if res, err := sys.Run(); err != nil || len(res) != 1 {
				t.Errorf("System.Run = %d results, %v; want the one valid submission", len(res), err)
			}

			ccfg := DefaultClusterConfig()
			ccfg.Algorithm = AlgoNimblockEnergy
			cl, err := NewCluster(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.SubmitWith(app, 2, PriorityMedium, 0, SubmitOptions{Tenant: "bad", Weight: tc.weight}); err == nil {
				t.Error("Cluster.SubmitWith accepted the weight")
			}
			if err := cl.SubmitWith(app, 2, PriorityMedium, 0, SubmitOptions{Tenant: "good"}); err != nil {
				t.Fatal(err)
			}
			if res, err := cl.Run(); err != nil || len(res) != 1 {
				t.Errorf("Cluster.Run = %d results, %v; want the one valid submission", len(res), err)
			}

			pcfg := DefaultServerlessConfig()
			pcfg.Algorithm = AlgoNimblockEnergy
			pl, err := NewPlatform(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.RegisterWith("bad", app, PriorityMedium, FunctionOptions{Tenant: "bad", Weight: tc.weight}); err == nil {
				t.Error("Platform.RegisterWith accepted the weight")
			}
			if err := pl.Invoke("bad", 2, 0); err == nil {
				t.Error("Platform.Invoke ran a function whose registration was refused")
			}
			if err := pl.RegisterWith("good", app, PriorityMedium, FunctionOptions{Tenant: "good"}); err != nil {
				t.Fatal(err)
			}
			if err := pl.Invoke("good", 2, 0); err != nil {
				t.Fatal(err)
			}
			if res, err := pl.Run(); err != nil || len(res) != 1 {
				t.Errorf("Platform.Run = %d results, %v; want the one valid invocation", len(res), err)
			}
		})
	}
}

// A heterogeneous cluster: per-board specs, hetero-aware dispatch,
// weighted tenants, and fleet-level energy.
func TestClusterHeterogeneousFleet(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Algorithm = AlgoNimblockEnergy
	cfg.Boards = 2
	cfg.Dispatch = DispatchHeteroAware
	cfg.BoardSpecs = []*BoardSpec{
		{Slots: 8, StaticWattsPerSlot: 2, ActiveWattsPerSlot: 1},
		{Slots: 4, LatencyScale: 2, StaticWattsPerSlot: 2, ActiveWattsPerSlot: 1},
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := Benchmark(LeNet)
	for i := 0; i < 8; i++ {
		tenant := "alpha"
		if i%2 == 1 {
			tenant = "beta"
		}
		err := cl.SubmitWith(app, 3, PriorityMedium, time.Duration(i)*100*time.Millisecond,
			SubmitOptions{Tenant: tenant, Weight: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("%d results", len(res))
	}
	if es := cl.Energy(); es.StaticJoules <= 0 || es.ActiveJoules <= 0 {
		t.Fatalf("fleet energy %+v", es)
	}
	svc := cl.TenantServices()
	if svc["alpha"] <= 0 || svc["beta"] <= 0 {
		t.Fatalf("tenant services %v", svc)
	}
}

// The serverless front-end carries the same heterogeneity surface:
// per-board specs, weighted function tenants, and fleet energy.
func TestPlatformHeterogeneousFleet(t *testing.T) {
	cfg := DefaultServerlessConfig()
	cfg.Algorithm = AlgoNimblockEnergy
	cfg.Boards = 2
	cfg.BoardSpecs = []*BoardSpec{
		{Slots: 8, StaticWattsPerSlot: 2, ActiveWattsPerSlot: 1},
		{Slots: 4, LatencyScale: 2, StaticWattsPerSlot: 2, ActiveWattsPerSlot: 1},
	}
	pl, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := Benchmark(LeNet)
	if err := pl.RegisterWith("fa", app, PriorityMedium, FunctionOptions{Tenant: "alpha", Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if err := pl.RegisterWith("fb", app, PriorityMedium, FunctionOptions{Tenant: "beta", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		fn := "fa"
		if i%2 == 1 {
			fn = "fb"
		}
		if err := pl.Invoke(fn, 2, time.Duration(i)*100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	if es := pl.Energy(); es.StaticJoules <= 0 || es.ActiveJoules <= 0 {
		t.Fatalf("platform energy %+v", es)
	}
	svc := pl.TenantServices()
	if svc["alpha"] <= 0 || svc["beta"] <= 0 {
		t.Fatalf("tenant services %v", svc)
	}

	cfg.BoardSpecs = cfg.BoardSpecs[:1]
	if _, err := NewPlatform(cfg); err == nil || !strings.Contains(err.Error(), "board specs") {
		t.Fatalf("mismatched specs error = %v", err)
	}
}

func TestClusterBoardSpecsValidation(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Boards = 3
	cfg.BoardSpecs = []*BoardSpec{{Slots: 4}}
	if _, err := NewCluster(cfg); err == nil || !strings.Contains(err.Error(), "board specs") {
		t.Fatalf("mismatched specs error = %v", err)
	}
	cfg.BoardSpecs = []*BoardSpec{{Slots: 4}, {Slots: -1}, {Slots: 4}}
	if _, err := NewCluster(cfg); err == nil || !strings.Contains(err.Error(), "board 1") {
		t.Fatalf("invalid per-board spec error = %v", err)
	}
}
