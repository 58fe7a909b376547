package nimblock

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Algorithm() != "Nimblock" {
		t.Fatalf("algorithm = %q", sys.Algorithm())
	}
	app, err := Benchmark(LeNet)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(app, 5, PriorityHigh, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].App != LeNet || res[0].Response <= 0 {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestAllAlgorithmsRunnable(t *testing.T) {
	for _, algo := range Algorithms() {
		cfg := DefaultConfig()
		cfg.Algorithm = algo
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		app, _ := Benchmark(ImageCompression)
		if err := sys.Submit(app, 3, PriorityMedium, 0); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

func TestCustomApp(t *testing.T) {
	b := NewApp("custom")
	pre := b.AddTask("pre", 10*time.Millisecond)
	l := b.AddTask("left", 20*time.Millisecond)
	r := b.AddTask("right", 20*time.Millisecond)
	post := b.AddTask("post", 10*time.Millisecond)
	b.AddDependency(pre, l).AddDependency(pre, r)
	b.Chain(l, post)
	b.AddDependency(r, post)
	app, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if app.NumTasks() != 4 || app.NumEdges() != 4 {
		t.Fatalf("shape: %d tasks %d edges", app.NumTasks(), app.NumEdges())
	}
	if app.CriticalPath() != 40*time.Millisecond {
		t.Fatalf("critical path = %v", app.CriticalPath())
	}
	sys, _ := NewSystem(DefaultConfig())
	if err := sys.Submit(app, 4, PriorityLow, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].App != "custom" {
		t.Fatalf("result = %+v", res[0])
	}
}

func TestInvalidCustomApp(t *testing.T) {
	b := NewApp("cyclic")
	x := b.AddTask("x", time.Millisecond)
	y := b.AddTask("y", time.Millisecond)
	b.AddDependency(x, y).AddDependency(y, x)
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestBenchmarksCatalog(t *testing.T) {
	names := Benchmarks()
	if len(names) != 6 {
		t.Fatalf("benchmarks = %v", names)
	}
	if _, err := Benchmark("ghost"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestTraceAndGantt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableTrace = true
	sys, _ := NewSystem(cfg)
	app, _ := Benchmark(Rendering3D)
	sys.Submit(app, 5, PriorityMedium, 0)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	dump := sys.TraceDump()
	for _, want := range []string{"arrival", "reconfig-done", "item-done", "retire"} {
		if !strings.Contains(dump, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	g := sys.Gantt(60)
	if !strings.Contains(g, "slot  0") || !strings.Contains(g, "#") {
		t.Fatalf("gantt:\n%s", g)
	}
}

func TestPreemptionsExposed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableTrace = true
	sys, _ := NewSystem(cfg)
	of, _ := Benchmark(OpticalFlow)
	ln, _ := Benchmark(LeNet)
	dr, _ := Benchmark(Rendering3D)
	sys.Submit(of, 20, PriorityLow, 0)
	sys.Submit(ln, 5, PriorityHigh, 2*time.Second)
	sys.Submit(dr, 5, PriorityHigh, 2*time.Second+time.Millisecond)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range res {
		total += r.Preemptions
	}
	if sys.Preemptions() != total {
		t.Fatalf("Preemptions() = %d, results say %d", sys.Preemptions(), total)
	}
}

// ReconfigFaultRate is the plan "crc prob=R" at seed 0. Both spellings
// must reproduce the runs recorded when the board still carried its own
// uniform fault process: the test's own LeNet run (no fault lands) and
// a four-app mix on which 13 faults land and are retried.
func TestFaultRateConfig(t *testing.T) {
	type sub struct {
		name  string
		batch int
		at    time.Duration
	}
	cases := []struct {
		name string
		subs []sub
		rec  RecoveryStats
		want []string // per-app Result, as %+v
	}{
		{
			name: "lenet",
			subs: []sub{{LeNet, 2, 0}},
			rec:  RecoveryStats{EffectiveSlots: 10},
			want: []string{
				"{App:LeNet ID:1 Batch:2 Priority:3 Arrival:0s FirstLaunch:79.973ms Retire:331.946ms Response:331.946ms Run:258ms Reconfig:239.919ms Wait:79.973ms Preemptions:0 Reconfigurations:3}",
			},
		},
		{
			name: "mix",
			subs: []sub{{LeNet, 3, 0}, {OpticalFlow, 3, 100 * time.Millisecond}, {Rendering3D, 3, 200 * time.Millisecond}, {AlexNet, 3, 300 * time.Millisecond}},
			rec:  RecoveryStats{FaultsInjected: 13, Retries: 13, Recovered: 13, EffectiveSlots: 10},
			want: []string{
				"{App:LeNet ID:1 Batch:3 Priority:3 Arrival:0s FirstLaunch:79.973ms Retire:368.919ms Response:368.919ms Run:387ms Reconfig:239.919ms Wait:79.973ms Preemptions:0 Reconfigurations:3}",
				"{App:OpticalFlow ID:2 Batch:3 Priority:3 Arrival:100ms FirstLaunch:404.865ms Retire:6.147433s Response:6.047433s Run:13.689s Reconfig:719.757ms Wait:304.865ms Preemptions:0 Reconfigurations:9}",
				"{App:3DRendering ID:3 Batch:3 Priority:3 Arrival:200ms FirstLaunch:729.757ms Retire:1.286703s Response:1.086703s Run:882ms Reconfig:239.919ms Wait:529.757ms Preemptions:0 Reconfigurations:3}",
				"{App:AlexNet ID:4 Batch:3 Priority:3 Arrival:300ms FirstLaunch:1.366676s Retire:27.117244s Response:26.817244s Run:3m1.2s Reconfig:3.038974s Wait:1.066676s Preemptions:0 Reconfigurations:38}",
			},
		},
	}
	rate := DefaultConfig()
	rate.ReconfigFaultRate = 0.2
	plan := DefaultConfig()
	plan.FaultPlan = "seed 0\ncrc prob=0.2"
	for _, tc := range cases {
		for spelling, cfg := range map[string]Config{"rate": rate, "plan": plan} {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range tc.subs {
				app, _ := Benchmark(s.name)
				if err := sys.Submit(app, s.batch, PriorityMedium, s.at); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.Recovery(); got != tc.rec {
				t.Errorf("%s/%s: Recovery() = %+v, want %+v", tc.name, spelling, got, tc.rec)
			}
			if len(res) != len(tc.want) {
				t.Fatalf("%s/%s: %d results, want %d", tc.name, spelling, len(res), len(tc.want))
			}
			for i, r := range res {
				if got := fmt.Sprintf("%+v", r); got != tc.want[i] {
					t.Errorf("%s/%s: result %d = %s\nwant %s", tc.name, spelling, i, got, tc.want[i])
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = "bogus"
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	sys, _ := NewSystem(DefaultConfig())
	if err := sys.Submit(nil, 1, 1, 0); err == nil {
		t.Fatal("nil app accepted")
	}
	// A fault rate is a probability; every front-end rejects one outside
	// [0,1] with the fault plan's error.
	for _, r := range []float64{1.5, -0.1, math.NaN()} {
		cfg := DefaultConfig()
		cfg.ReconfigFaultRate = r
		if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "probability") {
			t.Errorf("NewSystem with fault rate %v: err %v, want the plan's probability error", r, err)
		}
		if _, err := NewCluster(ClusterConfig{Config: cfg}); err == nil || !strings.Contains(err.Error(), "probability") {
			t.Errorf("NewCluster with fault rate %v: err %v, want the plan's probability error", r, err)
		}
		if _, err := NewPlatform(ServerlessConfig{Config: cfg}); err == nil || !strings.Contains(err.Error(), "probability") {
			t.Errorf("NewPlatform with fault rate %v: err %v, want the plan's probability error", r, err)
		}
	}
}

func TestSingleSlotLatency(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	app, _ := Benchmark(LeNet)
	d := sys.SingleSlotLatency(app, 5)
	if d < 800*time.Millisecond || d > 950*time.Millisecond {
		t.Fatalf("single-slot latency = %v", d)
	}
}

func TestHorizonEnforced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = time.Second // far too short for DigitRecognition
	sys, _ := NewSystem(cfg)
	app, _ := Benchmark(DigitRecognition)
	sys.Submit(app, 5, PriorityMedium, 0)
	if _, err := sys.Run(); err == nil {
		t.Fatal("run beyond horizon did not fail")
	}
}

func TestOpPartitionFacade(t *testing.T) {
	b := NewOpApp("pipeline")
	a := b.AddOp("a", 5*time.Millisecond, ResourceDemand{LUTs: 0.3})
	c := b.AddOp("b", 5*time.Millisecond, ResourceDemand{LUTs: 0.3})
	d := b.AddOp("c", 5*time.Millisecond, ResourceDemand{LUTs: 0.3})
	e := b.AddOp("d", 5*time.Millisecond, ResourceDemand{LUTs: 0.9})
	b.Chain(a, c, d, e)
	app, info, err := b.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if info.Tasks < 2 || info.Tasks >= 4 {
		t.Fatalf("info = %+v", info)
	}
	if info.Utilization <= 0 || info.Utilization > 1 {
		t.Fatalf("utilization = %v", info.Utilization)
	}
	sys, _ := NewSystem(DefaultConfig())
	if err := sys.Submit(app, 3, PriorityMedium, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].App != "pipeline" {
		t.Fatalf("result %+v", res[0])
	}
}

func TestOpPartitionRejectsOversized(t *testing.T) {
	b := NewOpApp("huge")
	b.AddOp("x", time.Millisecond, ResourceDemand{LUTs: 1.4})
	if _, _, err := b.Partition(); err == nil {
		t.Fatal("oversized op accepted")
	}
}

func TestInterconnectAndCheckpointOptions(t *testing.T) {
	for _, ic := range []string{"", "folded", "ps-bus", "noc"} {
		cfg := DefaultConfig()
		cfg.Interconnect = ic
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%q: %v", ic, err)
		}
		app, _ := Benchmark(ImageCompression)
		sys.Submit(app, 4, PriorityMedium, 0)
		if _, err := sys.Run(); err != nil {
			t.Fatalf("%q: %v", ic, err)
		}
	}
	cfg := DefaultConfig()
	cfg.Interconnect = "bogus"
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("bogus interconnect accepted")
	}
	// On-demand checkpointing: a high-priority arrival preempts the long
	// OpticalFlow items mid-item instead of waiting for a batch boundary.
	cfg = DefaultConfig()
	cfg.Checkpoint = CheckpointConfig{Enabled: true}
	cfg.EnableTrace = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	of, _ := Benchmark(OpticalFlow)
	an, _ := Benchmark(AlexNet)
	ln, _ := Benchmark(LeNet)
	rd, _ := Benchmark(Rendering3D)
	sys.Submit(of, 20, PriorityLow, 0)
	sys.Submit(an, 8, PriorityLow, 100*time.Millisecond)
	sys.Submit(ln, 5, PriorityHigh, 2*time.Second)
	sys.Submit(rd, 5, PriorityHigh, 2*time.Second)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sys.TraceDump(), " checkpoint ") {
		t.Fatalf("no checkpoint preemption provoked:\n%s", sys.TraceDump())
	}
}

func TestTraceJSONFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableTrace = true
	sys, _ := NewSystem(cfg)
	app, _ := Benchmark(LeNet)
	sys.Submit(app, 2, PriorityLow, 0)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := sys.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "reconfig-done") {
		t.Fatal("trace JSON missing events")
	}
}
