package hv_test

import (
	"fmt"
	"math/rand"

	"nimblock/internal/taskgraph"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
	"nimblock/internal/workload"
)

// traceRun replays a generated sequence with tracing and returns the
// results and log.
func traceRun(t *testing.T, mk func() sched.Scheduler, seq workload.Sequence) ([]hv.Result, *trace.Log) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	lg := traced(&cfg)
	h, err := hv.New(eng, cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range seq {
		if err := h.Submit(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Run()
	if err != nil {
		t.Fatalf("%v", err)
	}
	return res, lg
}

// checkTraceInvariants delegates to the reusable streaming checker in
// internal/sched/schedtest; see its documentation for the invariant
// catalogue (CAP serialization is checked separately where wanted, so
// the gap check is disabled here to match the historical behaviour).
func checkTraceInvariants(t *testing.T, lg *trace.Log, results []hv.Result) {
	t.Helper()
	c := schedtest.NewChecker()
	c.MinReconfigGap = 0
	lg.Replay(c)
	if err := c.Finish(len(results)); err != nil {
		t.Fatal(err)
	}
}

// checkCAPSerialization verifies the single configuration port globally:
// successive reconfiguration completions are spaced by at least one full
// reconfiguration time (trace records queueing at start, so completions
// are the serialization witness).
func checkCAPSerialization(t *testing.T, lg *trace.Log) {
	t.Helper()
	c := schedtest.NewChecker()
	lg.Replay(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// Property suite: the full invariant checker rides along live — attached
// as the hypervisor's only observer, with no log — across every policy and
// a spread of randomized workloads. This is the streaming counterpart of
// TestTraceInvariantsAcrossPolicies and doubles as coverage for the
// observability hook itself.
func TestInvariantPropertySuiteLive(t *testing.T) {
	const seeds = 20
	scenarios := []workload.Scenario{workload.Standard, workload.Stress, workload.RealTime}
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= seeds; seed++ {
				checker := schedtest.NewChecker()
				eng := sim.NewEngine()
				cfg := hv.DefaultConfig()
				cfg.Observer = checker
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
				if checker.Events() == 0 {
					t.Fatalf("%s seed %d: observer saw no events", name, seed)
				}
			}
		})
	}
}

// Randomized invariant sweep across all five policies.
func TestTraceInvariantsAcrossPolicies(t *testing.T) {
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				seq := workload.Generate(workload.Spec{
					Scenario: workload.Stress,
					Events:   10,
					// Bound batch so the sweep stays fast.
					FixedBatch: int(seed*3) % 8,
				}, seed)
				res, lg := traceRun(t, mk, seq)
				checkTraceInvariants(t, lg, res)
				checkCAPSerialization(t, lg)
			}
		})
	}
}

// The same invariants hold for the ablation variants, which exercise
// preemption and pipelining paths differently.
func TestTraceInvariantsAblations(t *testing.T) {
	board := hv.DefaultConfig().Board
	variants := map[string]core.Options{
		"NoPreempt":       {Pipelining: true},
		"NoPipe":          {Preemption: true},
		"NoPreemptNoPipe": {},
	}
	for name, opts := range variants {
		name, opts := name, opts
		t.Run(name, func(t *testing.T) {
			seq := workload.Generate(workload.Spec{Scenario: workload.RealTime, Events: 10}, 5)
			res, lg := traceRun(t, func() sched.Scheduler { return core.New(opts, board) }, seq)
			checkTraceInvariants(t, lg, res)
		})
	}
}

// Invariants hold under reconfiguration fault injection too.
func TestTraceInvariantsWithFaults(t *testing.T) {
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	lg := traced(&cfg)
	cfg.Board.NewInjector = faults.Uniform(0.15, 3).MustFactory()
	cfg.Board.MaxRetries = 50
	h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
	if err != nil {
		t.Fatal(err)
	}
	seq := workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 8}, 11)
	for _, ev := range seq {
		if err := h.Submit(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkTraceInvariants(t, lg, res)
	if h.Board().Stats().Faults == 0 {
		t.Fatal("fault injection inactive")
	}
}

// Response-time accounting is consistent with the trace: an app's
// first item-start matches FirstLaunch and its retire matches Retire.
func TestAccountingMatchesTrace(t *testing.T) {
	board := hv.DefaultConfig().Board
	seq := workload.Generate(workload.Spec{Scenario: workload.Standard, Events: 8}, 21)
	res, lg := traceRun(t, func() sched.Scheduler { return core.New(core.DefaultOptions(), board) }, seq)
	firstStart := map[int64]sim.Time{}
	retire := map[int64]sim.Time{}
	for _, e := range lg.Events() {
		switch e.Kind {
		case trace.KindItemStart:
			if _, ok := firstStart[e.AppID]; !ok {
				firstStart[e.AppID] = e.At
			}
		case trace.KindRetire:
			retire[e.AppID] = e.At
		}
	}
	for _, r := range res {
		if firstStart[r.AppID] != r.FirstLaunch {
			t.Errorf("app %d: FirstLaunch %v, trace %v", r.AppID, r.FirstLaunch, firstStart[r.AppID])
		}
		if retire[r.AppID] != r.Retire {
			t.Errorf("app %d: Retire %v, trace %v", r.AppID, r.Retire, retire[r.AppID])
		}
	}
}

// randomDAGGraph builds a random DAG application with forward edges and
// mixed task latencies, exercising join/fork readiness paths the chain
// benchmarks never hit.
func randomDAGGraph(seed int64, name string) *taskgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(10)
	b := taskgraph.NewBuilder(name)
	for i := 0; i < n; i++ {
		b.AddTask("t", sim.Duration(5+rng.Intn(200))*sim.Millisecond)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild()
}

// Property: random DAG applications complete under every policy with all
// trace invariants intact.
func TestRandomDAGInvariantsProperty(t *testing.T) {
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			for seed := int64(100); seed < 106; seed++ {
				eng := sim.NewEngine()
				cfg := hv.DefaultConfig()
				lg := traced(&cfg)
				h, err := hv.New(eng, cfg, mk())
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				nApps := 2 + rng.Intn(4)
				for i := 0; i < nApps; i++ {
					g := randomDAGGraph(seed*31+int64(i), fmt.Sprintf("dag%d-%d", seed, i))
					batch := 1 + rng.Intn(6)
					prio := []int{1, 3, 9}[rng.Intn(3)]
					at := sim.Time(rng.Intn(2_000_000))
					if err := h.Submit(g, batch, prio, at); err != nil {
						t.Fatal(err)
					}
				}
				res, err := h.Run()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				checkTraceInvariants(t, lg, res)
				// Work conservation on arbitrary DAGs.
				for _, r := range res {
					if r.Run <= 0 {
						t.Fatalf("seed %d: app %s ran for %v", seed, r.App, r.Run)
					}
				}
				if h.LiveBuffers() != 0 {
					t.Fatalf("seed %d: %d buffers leaked", seed, h.LiveBuffers())
				}
			}
		})
	}
}

// The hypervisor's accounting must agree with trace-derived summaries.
func TestSummariesMatchAccounting(t *testing.T) {
	board := hv.DefaultConfig().Board
	seq := workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 8}, 31)
	res, lg := traceRun(t, func() sched.Scheduler { return core.New(core.DefaultOptions(), board) }, seq)
	sums := lg.Summarize()
	if len(sums) != len(res) {
		t.Fatalf("%d summaries for %d results", len(sums), len(res))
	}
	byID := map[int64]hv.Result{}
	for _, r := range res {
		byID[r.AppID] = r
	}
	for _, s := range sums {
		r := byID[s.AppID]
		if s.Response() != r.Response {
			t.Errorf("app %d: summary response %v vs accounting %v", s.AppID, s.Response(), r.Response)
		}
		if s.ComputeTime != r.Run {
			t.Errorf("app %d: summary compute %v vs accounting %v", s.AppID, s.ComputeTime, r.Run)
		}
		if s.Preemptions != r.Preemptions {
			t.Errorf("app %d: summary preempts %d vs accounting %d", s.AppID, s.Preemptions, r.Preemptions)
		}
		if s.Reconfigs != r.Reconfigurations {
			t.Errorf("app %d: summary reconfigs %d vs accounting %d", s.AppID, s.Reconfigs, r.Reconfigurations)
		}
		g := apps.MustGraph(s.App)
		if s.Items != g.NumTasks()*r.Batch {
			t.Errorf("app %d: %d items, want %d", s.AppID, s.Items, g.NumTasks()*r.Batch)
		}
	}
}
