package nimblock

import (
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

func TestFaultRateConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReconfigFaultRate = 0.2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := Benchmark(LeNet)
	sys.Submit(app, 2, PriorityMedium, 0)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
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
