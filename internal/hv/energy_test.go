package hv_test

import (
	"reflect"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/hv"
	"nimblock/internal/metrics"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// sixPolicies extends the historical five-policy map with
// NimblockEnergy so the energy property suites quantify over every
// scheduler, including the one whose decisions depend on tenant
// service.
func sixPolicies() map[string]func() sched.Scheduler {
	m := policies()
	board := hv.DefaultConfig().Board
	m["NimblockEnergy"] = func() sched.Scheduler { return core.NewEnergy(board) }
	return m
}

// Property: energy conservation. For 20 seeds across all six policies,
// the hypervisor's reported joules must equal static power times the
// usable slot-time integral plus active power times the occupied
// slot-time integral, where both integrals are re-derived independently
// from the event stream by the trace checker. Every fourth seed injects
// reconfiguration faults so the retry and fault-abort transitions are
// covered too.
func TestEnergyConservationProperty(t *testing.T) {
	const seeds = 20
	const staticW, activeW = 2.5, 1.5
	scenarios := []workload.Scenario{workload.Standard, workload.Stress, workload.RealTime}
	for name, mk := range sixPolicies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= seeds; seed++ {
				checker := schedtest.NewChecker()
				eng := sim.NewEngine()
				cfg := hv.DefaultConfig()
				cfg.Observer = checker
				cfg.Board.StaticWattsPerSlot = staticW
				cfg.Board.ActiveWattsPerSlot = activeW
				if seed%4 == 0 {
					cfg.Board.FaultRate = 0.15
					cfg.Board.FaultSeed = seed
					cfg.Board.MaxRetries = 50
				}
				h, err := hv.New(eng, cfg, mk())
				if err != nil {
					t.Fatal(err)
				}
				seq := workload.Generate(workload.Spec{
					Scenario:   scenarios[seed%int64(len(scenarios))],
					Events:     6,
					FixedBatch: int(seed) % 7,
				}, seed)
				for _, ev := range seq {
					if err := h.Submit(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
						t.Fatal(err)
					}
				}
				res, err := h.Run()
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				if err := checker.Finish(len(res)); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				es := h.Energy()
				if es.TotalJoules() <= 0 || es.ActiveJoules <= 0 {
					t.Fatalf("%s seed %d: degenerate energy report %+v", name, seed, es)
				}
				if err := checker.CheckEnergy(cfg.Board.Slots, staticW, activeW, eng.Now(), es.TotalJoules()); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
			}
		})
	}
}

// Metamorphic: multiplying every power coefficient by k must multiply
// the reported joules by exactly k and leave the schedule bit-for-bit
// identical. Energy is an observation, never an input — for the
// energy-aware policy too, which steers by allocation shape and tenant
// service rather than by the wattage numbers.
func TestEnergyMetamorphicPowerScaling(t *testing.T) {
	// Power of two, so scaling each coefficient and the final sum is
	// exact in floating point and the comparison needs no tolerance.
	const k = 4.0
	for name, mk := range sixPolicies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				run := func(scale float64) ([]hv.Result, float64) {
					eng := sim.NewEngine()
					cfg := hv.DefaultConfig()
					cfg.Board.StaticWattsPerSlot = 2 * scale
					cfg.Board.ActiveWattsPerSlot = 1 * scale
					h, err := hv.New(eng, cfg, mk())
					if err != nil {
						t.Fatal(err)
					}
					seq := workload.Generate(workload.Spec{
						Scenario:   workload.Stress,
						Events:     6,
						FixedBatch: int(seed) % 5,
					}, seed)
					for _, ev := range seq {
						if err := h.Submit(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
							t.Fatal(err)
						}
					}
					res, err := h.Run()
					if err != nil {
						t.Fatalf("%s seed %d: %v", name, seed, err)
					}
					return res, h.Energy().TotalJoules()
				}
				base, j1 := run(1)
				scaled, jk := run(k)
				if !reflect.DeepEqual(base, scaled) {
					t.Fatalf("%s seed %d: schedule changed when power was scaled", name, seed)
				}
				if jk != k*j1 {
					t.Fatalf("%s seed %d: joules %v at %vx power, want exactly %v", name, seed, jk, k, k*j1)
				}
			}
		})
	}
}

// fairnessRun drives the energy-aware policy with identical
// applications alternating between two tenants, all contending from
// t=0, and samples delivered per-tenant service mid-run (after
// completion any work-conserving schedule equalizes identical tenants,
// so only the mid-run snapshot distinguishes fair from unfair orders).
func fairnessRun(t *testing.T, seed int64, weightA, weightB float64) map[string]sim.Duration {
	t.Helper()
	const apps_ = 12
	batch := 5 + int(seed%5)
	submit := func(h *hv.Hypervisor) {
		t.Helper()
		for i := 0; i < apps_; i++ {
			tenant, w := "tenantA", weightA
			if i%2 == 1 {
				tenant, w = "tenantB", weightB
			}
			if _, err := h.SubmitTenant(apps.MustGraph(apps.LeNet), batch, 3, 0, tenant, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Probe run: measure the makespan of this exact workload so the
	// fairness snapshot lands mid-run with both tenants still backlogged.
	probeEng := sim.NewEngine()
	probe, err := hv.New(probeEng, hv.DefaultConfig(), core.NewEnergy(hv.DefaultConfig().Board))
	if err != nil {
		t.Fatal(err)
	}
	submit(probe)
	res, err := probe.Run()
	if err != nil {
		t.Fatal(err)
	}
	var makespan sim.Time
	for _, r := range res {
		if r.Retire > makespan {
			makespan = r.Retire
		}
	}
	eng := sim.NewEngine()
	h, err := hv.New(eng, hv.DefaultConfig(), core.NewEnergy(hv.DefaultConfig().Board))
	if err != nil {
		t.Fatal(err)
	}
	submit(h)
	eng.RunUntil(sim.Time(int64(makespan) / 2))
	return h.TenantServices()
}

// Property: fairness under equal weights. Two identical tenants in
// contention must split fabric time nearly evenly at every mid-run
// snapshot — Jain's index at least 0.95 across 20 seeds.
func TestFairnessEqualWeightsProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		svc := fairnessRun(t, seed, 1, 1)
		a, b := svc["tenantA"].Seconds(), svc["tenantB"].Seconds()
		if a <= 0 || b <= 0 {
			t.Fatalf("seed %d: tenant starved mid-run: A=%vs B=%vs", seed, a, b)
		}
		if j := metrics.JainIndex([]float64{a, b}); j < 0.95 {
			t.Fatalf("seed %d: Jain index %v < 0.95 (A=%vs B=%vs)", seed, j, a, b)
		}
	}
}

// Property: weighted fairness. A 4:1 weight split must deliver service
// in roughly 4:1 proportion under contention. Slot and batch
// granularity make the ratio coarse, so the tolerance band is generous
// but strictly separates 4:1 from both 1:1 and starvation.
func TestFairnessWeightedRatioProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		svc := fairnessRun(t, seed, 4, 1)
		a, b := svc["tenantA"].Seconds(), svc["tenantB"].Seconds()
		if b <= 0 {
			t.Fatalf("seed %d: light tenant starved (A=%vs B=%vs)", seed, a, b)
		}
		ratio := a / b
		if ratio < 2.0 || ratio > 8.0 {
			t.Fatalf("seed %d: service ratio %v outside [2,8] for 4:1 weights (A=%vs B=%vs)", seed, ratio, a, b)
		}
	}
}
