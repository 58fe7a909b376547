package hv_test

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/fpga"
	"nimblock/internal/hv"
	"nimblock/internal/interconnect"
	"nimblock/internal/obs"
	"nimblock/internal/sched"
	"nimblock/internal/sched/baseline"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sched/prema"
	"nimblock/internal/sched/rr"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// policies returns fresh instances of all five schedulers.
func policies() map[string]func() sched.Scheduler {
	board := hv.DefaultConfig().Board
	return map[string]func() sched.Scheduler{
		"Baseline": func() sched.Scheduler { return baseline.New() },
		"FCFS":     func() sched.Scheduler { return fcfs.New() },
		"PREMA":    func() sched.Scheduler { return prema.New() },
		"RR":       func() sched.Scheduler { return rr.New() },
		"Nimblock": func() sched.Scheduler { return core.New(core.DefaultOptions(), board) },
	}
}

// traced records cfg's run: it tees a fresh log into cfg's observer and
// returns the log.
func traced(cfg *hv.Config) *trace.Log {
	lg := trace.New()
	cfg.Observer = obs.Tee(lg, cfg.Observer)
	return lg
}

// runSuite runs subs under policy on the default board, with observer
// (nil for none) attached.
func runSuite(t *testing.T, policy sched.Scheduler, subs []submission, observer obs.Sink) ([]hv.Result, *hv.Hypervisor) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	cfg.Observer = observer
	h, err := hv.New(eng, cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Run()
	if err != nil {
		t.Fatalf("%s: %v", policy.Name(), err)
	}
	return res, h
}

type submission struct {
	name  string
	batch int
	prio  int
	at    sim.Time
}

// mixedWorkload is a moderately contended mix across the suite.
func mixedWorkload() []submission {
	return []submission{
		{apps.ImageCompression, 5, 3, 0},
		{apps.LeNet, 5, 1, 200 * sim.Time(sim.Millisecond)},
		{apps.OpticalFlow, 5, 9, 400 * sim.Time(sim.Millisecond)},
		{apps.Rendering3D, 8, 3, 600 * sim.Time(sim.Millisecond)},
		{apps.LeNet, 10, 9, 800 * sim.Time(sim.Millisecond)},
		{apps.ImageCompression, 3, 1, 1000 * sim.Time(sim.Millisecond)},
	}
}

// All five policies must complete every application, with consistent
// accounting and zero leaked buffers.
func TestAllPoliciesComplete(t *testing.T) {
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			res, h := runSuite(t, mk(), mixedWorkload(), nil)
			if len(res) != len(mixedWorkload()) {
				t.Fatalf("%d results for %d submissions", len(res), len(mixedWorkload()))
			}
			for _, r := range res {
				if r.Response <= 0 {
					t.Errorf("%s: non-positive response %v", r.App, r.Response)
				}
				if r.Retire < r.FirstLaunch || r.FirstLaunch < r.Arrival {
					t.Errorf("%s: time ordering violated: arrival=%v launch=%v retire=%v",
						r.App, r.Arrival, r.FirstLaunch, r.Retire)
				}
				if r.Wait < 0 || r.Run <= 0 || r.Reconfig <= 0 {
					t.Errorf("%s: bad accounting %+v", r.App, r)
				}
				if r.Reconfigurations < 1 {
					t.Errorf("%s: no reconfigurations recorded", r.App)
				}
			}
			if h.LiveBuffers() != 0 {
				t.Errorf("%d buffers leaked", h.LiveBuffers())
			}
			if h.UsedBufferBytes() != 0 {
				t.Errorf("%d bytes leaked", h.UsedBufferBytes())
			}
		})
	}
}

// Run-time conservation: each application's summed item execution time
// equals batch x total per-item work, regardless of policy.
func TestRunTimeConservation(t *testing.T) {
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			res, _ := runSuite(t, mk(), mixedWorkload(), nil)
			for _, r := range res {
				g := apps.MustGraph(r.App)
				want := g.TotalWork() * sim.Duration(r.Batch)
				if r.Run != want {
					t.Errorf("%s: run time %v, want %v", r.App, r.Run, want)
				}
			}
		})
	}
}

// Determinism: identical stimuli produce identical results.
func TestDeterminism(t *testing.T) {
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			a, _ := runSuite(t, mk(), mixedWorkload(), nil)
			b, _ := runSuite(t, mk(), mixedWorkload(), nil)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("run diverged at %d:\n%+v\n%+v", i, a[i], b[i])
				}
			}
		})
	}
}

// Baseline executes one application at a time: with distinct arrival
// times, busy intervals must not overlap.
func TestBaselineNoSharing(t *testing.T) {
	subs := []submission{
		{apps.Rendering3D, 5, 3, 0},
		{apps.LeNet, 5, 9, 100 * sim.Time(sim.Millisecond)},
		{apps.ImageCompression, 5, 1, 200 * sim.Time(sim.Millisecond)},
	}
	res, _ := runSuite(t, baseline.New(), subs, nil)
	// Each app's first launch must come after the previous app retired
	// (modulo the reconfiguration prefetch, which only starts after
	// retirement too since slots belong to the active app).
	for i := 1; i < len(res); i++ {
		if res[i].FirstLaunch < res[i-1].Retire {
			t.Fatalf("app %d launched at %v before app %d retired at %v",
				i, res[i].FirstLaunch, i-1, res[i-1].Retire)
		}
	}
}

// Calibration check (Table 3): baseline execution shape. Response for a
// single uncontended app approximates the paper's baseline execution
// times: LeNet ~0.8s, ImgC ~0.64s, 3DR ~1.6s, OF ~23s (the paper's
// "execution time" excludes the initial reconfiguration; response
// includes it, so allow the ~80-160 ms shift).
func TestBaselineCalibration(t *testing.T) {
	want := map[string][2]float64{ // [lo, hi] seconds
		apps.LeNet:            {0.6, 1.0},
		apps.ImageCompression: {0.45, 0.75},
		apps.Rendering3D:      {1.3, 1.85},
		apps.OpticalFlow:      {21.5, 24.5},
	}
	for name, bounds := range want {
		res, _ := runSuite(t, baseline.New(), []submission{{name, 5, 3, 0}}, nil)
		got := res[0].Response.Seconds()
		if got < bounds[0] || got > bounds[1] {
			t.Errorf("%s solo baseline response %.3fs outside [%.2f, %.2f]", name, got, bounds[0], bounds[1])
		}
	}
}

// AlexNet solo baseline lands near Table 3's 65.44 s execution time.
func TestBaselineAlexNetCalibration(t *testing.T) {
	res, _ := runSuite(t, baseline.New(), []submission{{apps.AlexNet, 5, 3, 0}}, nil)
	got := res[0].Response.Seconds()
	if got < 55 || got > 75 {
		t.Fatalf("AlexNet solo baseline response %.2fs, want ~65s", got)
	}
}

// Sharing must beat no-sharing on average under contention.
func TestSharingBeatsBaselineUnderContention(t *testing.T) {
	subs := mixedWorkload()
	base, _ := runSuite(t, baseline.New(), subs, nil)
	var baseTotal sim.Duration
	for _, r := range base {
		baseTotal += r.Response
	}
	board := hv.DefaultConfig().Board
	nim, _ := runSuite(t, core.New(core.DefaultOptions(), board), subs, nil)
	var nimTotal sim.Duration
	for _, r := range nim {
		nimTotal += r.Response
	}
	if nimTotal >= baseTotal {
		t.Fatalf("Nimblock total response %v not better than baseline %v", nimTotal, baseTotal)
	}
}

// Nimblock actually preempts: a long pipelining app over-consumes, then a
// newcomer forces batch-preemption.
func TestNimblockPreemptionHappens(t *testing.T) {
	board := hv.DefaultConfig().Board
	subs := []submission{
		{apps.OpticalFlow, 20, 1, 0}, // long-running, will pipeline across many slots
		{apps.AlexNet, 10, 1, 100 * sim.Time(sim.Millisecond)},
		{apps.LeNet, 5, 9, 2 * sim.Time(sim.Second)}, // high-priority newcomer
		{apps.Rendering3D, 5, 9, 2500 * sim.Time(sim.Millisecond)},
		{apps.ImageCompression, 5, 9, 3 * sim.Time(sim.Second)},
	}
	lg := trace.New()
	res, _ := runSuite(t, core.New(core.DefaultOptions(), board), subs, lg)
	preempts := 0
	for _, r := range res {
		preempts += r.Preemptions
	}
	if preempts == 0 {
		t.Fatal("expected at least one batch-preemption")
	}
	if lg.Count(trace.KindPreempt) != preempts {
		t.Fatalf("trace preempts %d != accounted %d", lg.Count(trace.KindPreempt), preempts)
	}
	// Preemption is honoured only at batch boundaries: no item may be
	// in flight between its start and the preemption of its slot. Verify
	// per-slot: every preempt event is preceded (for that slot) by an
	// item-done or reconfig-done, never an unmatched item-start.
	open := map[int]bool{}
	for _, e := range lg.Events() {
		switch e.Kind {
		case trace.KindItemStart:
			open[e.Slot] = true
		case trace.KindItemDone:
			open[e.Slot] = false
		case trace.KindPreempt:
			if open[e.Slot] {
				t.Fatalf("preemption of slot %d mid-item at %v", e.Slot, e.At)
			}
		}
	}
}

// Preempted work resumes and completes with no lost or duplicated items.
func TestPreemptedWorkConserved(t *testing.T) {
	board := hv.DefaultConfig().Board
	subs := []submission{
		{apps.OpticalFlow, 20, 1, 0},
		{apps.LeNet, 5, 9, sim.Time(sim.Second)},
		{apps.Rendering3D, 5, 9, sim.Time(sim.Second) + 1},
	}
	lg := trace.New()
	res, _ := runSuite(t, core.New(core.DefaultOptions(), board), subs, lg)
	for _, r := range res {
		g := apps.MustGraph(r.App)
		want := g.TotalWork() * sim.Duration(r.Batch)
		if r.Run != want {
			t.Errorf("%s: run %v, want %v (items lost or duplicated)", r.App, r.Run, want)
		}
	}
	// Every item-start has exactly one matching item-done.
	type key struct {
		id         int64
		task, item int
	}
	starts, dones := map[key]int{}, map[key]int{}
	for _, e := range lg.Events() {
		k := key{e.AppID, e.Task, e.Item}
		switch e.Kind {
		case trace.KindItemStart:
			starts[k]++
		case trace.KindItemDone:
			dones[k]++
		}
	}
	for k, n := range starts {
		if n != 1 || dones[k] != 1 {
			t.Fatalf("item %+v started %d times, finished %d times", k, n, dones[k])
		}
	}
}

// Pipelining reduces a single app's response vs bulk execution.
func TestPipeliningHelpsSingleApp(t *testing.T) {
	board := hv.DefaultConfig().Board
	subs := []submission{{apps.OpticalFlow, 10, 3, 0}}
	pipe, _ := runSuite(t, core.New(core.DefaultOptions(), board), subs, nil)
	noPipe, _ := runSuite(t, core.New(core.Options{Preemption: true}, board), subs, nil)
	if pipe[0].Response >= noPipe[0].Response {
		t.Fatalf("pipelining did not help: %v vs %v", pipe[0].Response, noPipe[0].Response)
	}
}

// Reconfiguration faults are retried transparently; results unchanged
// except for time.
func TestFaultInjectionEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	cfg.Board.NewInjector = faults.Uniform(0.2, 99).MustFactory()
	cfg.Board.MaxRetries = 50
	h, err := hv.New(eng, cfg, fcfs.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range mixedWorkload() {
		if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(mixedWorkload()) {
		t.Fatalf("only %d results", len(res))
	}
	if h.Board().Stats().Faults == 0 {
		t.Fatal("fault injection produced no faults")
	}
}

// The hypervisor enforces its policy contract: configuring an occupied
// slot is a mechanical error that fails the run.
func TestPolicyContractViolationFailsRun(t *testing.T) {
	eng := sim.NewEngine()
	h, err := hv.New(eng, hv.DefaultConfig(), &rogue{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(apps.MustGraph(apps.LeNet), 2, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(); err == nil {
		t.Fatal("rogue policy did not fail the run")
	}
}

// rogue violates the contract by configuring the same slot twice.
type rogue struct{ fired bool }

func (r *rogue) Name() string     { return "rogue" }
func (r *rogue) Pipelining() bool { return false }
func (r *rogue) Schedule(w sched.World, why sched.Reason) {
	if r.fired {
		return
	}
	r.fired = true
	a := w.Apps()[0]
	w.Reconfigure(0, a, 0)
	w.Reconfigure(0, a, 1) // occupied: contract violation
}

// SingleSlotLatency matches its definition.
func TestSingleSlotLatency(t *testing.T) {
	eng := sim.NewEngine()
	h, err := hv.New(eng, hv.DefaultConfig(), fcfs.New())
	if err != nil {
		t.Fatal(err)
	}
	g := apps.MustGraph(apps.LeNet)
	got := h.SingleSlotLatency(g, 5)
	// 3 reconfigs (~80ms) + 5 x 129ms of work.
	lo, hi := sim.Seconds(0.80), sim.Seconds(0.95)
	if got < lo || got > hi {
		t.Fatalf("SingleSlotLatency = %v, want within [%v, %v]", got, lo, hi)
	}
}

// The single-slot estimate is exactly what the simulator delivers: each
// benchmark run alone under FCFS on a one-slot board responds in
// SingleSlotLatencyFor, across bandwidths and fabric speeds.
func TestSingleSlotLatencyIsRealized(t *testing.T) {
	slow, fast := hv.DefaultConfig().Board, hv.DefaultConfig().Board
	slow.CAPBytesPerSec, slow.SDBytesPerSec, slow.LatencyScale = 33e6, 91e6, 1.7
	fast.CAPBytesPerSec, fast.SDBytesPerSec, fast.LatencyScale = 1e9, 3e9, 0.5
	for _, board := range []fpga.Config{hv.DefaultConfig().Board, slow, fast} {
		board.Slots = 1
		for _, name := range apps.Names() {
			for _, batch := range []int{1, 5} {
				cfg := hv.DefaultConfig()
				cfg.Board = board
				h, err := hv.New(sim.NewEngine(), cfg, fcfs.New())
				if err != nil {
					t.Fatal(err)
				}
				g := apps.MustGraph(name)
				if err := h.Submit(g, batch, 1, 0); err != nil {
					t.Fatal(err)
				}
				res, err := h.Run()
				if err != nil {
					t.Fatal(err)
				}
				if want := hv.SingleSlotLatencyFor(board, g, batch); res[0].Response != want {
					t.Errorf("CAP %g SD %g scale %g, %s batch %d: response %v, SingleSlotLatencyFor %v",
						board.CAPBytesPerSec, board.SDBytesPerSec, board.LatencyScale, name, batch, res[0].Response, want)
				}
			}
		}
	}
}

// Config validation.
func TestHypervisorConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := hv.New(eng, hv.DefaultConfig(), nil); err == nil {
		t.Error("nil policy accepted")
	}
	bad := hv.DefaultConfig()
	bad.SchedInterval = 0
	if _, err := hv.New(eng, bad, fcfs.New()); err == nil {
		t.Error("zero interval accepted")
	}
	bad = hv.DefaultConfig()
	bad.Horizon = 0
	if _, err := hv.New(eng, bad, fcfs.New()); err == nil {
		t.Error("zero horizon accepted")
	}
	bad = hv.DefaultConfig()
	bad.BufferBytes = 0
	if _, err := hv.New(eng, bad, fcfs.New()); err == nil {
		t.Error("zero buffer size accepted")
	}
}

// Submissions are validated.
func TestSubmitValidation(t *testing.T) {
	eng := sim.NewEngine()
	h, _ := hv.New(eng, hv.DefaultConfig(), fcfs.New())
	if err := h.Submit(apps.MustGraph(apps.LeNet), 0, 3, 0); err == nil {
		t.Error("zero batch accepted")
	}
	if err := h.Submit(apps.MustGraph(apps.LeNet), 1, 0, 0); err == nil {
		t.Error("zero priority accepted")
	}
}

// Throughput accessor.
func TestResultThroughput(t *testing.T) {
	r := hv.Result{Batch: 10, Response: 2 * sim.Second}
	if got := r.Throughput(); got != 5 {
		t.Fatalf("Throughput = %v, want 5", got)
	}
	if (hv.Result{}).Throughput() != 0 {
		t.Fatal("zero response should yield zero throughput")
	}
}

// Utilization accounting: a single chain app on a big board leaves most
// slot-time idle; the busy fraction matches work/(slots x makespan).
func TestUtilizationAccounting(t *testing.T) {
	eng := sim.NewEngine()
	h, err := hv.New(eng, hv.DefaultConfig(), fcfs.New())
	if err != nil {
		t.Fatal(err)
	}
	g := apps.MustGraph(apps.Rendering3D)
	if err := h.Submit(g, 5, 3, 0); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	makespan := res[0].Retire
	util := h.Utilization(makespan)
	want := float64(res[0].Run+res[0].Reconfig) / (float64(makespan) * 10)
	if util < want*0.999 || util > want*1.001 {
		t.Fatalf("utilization %v, want %v", util, want)
	}
	if h.Utilization(0) != 0 {
		t.Fatal("zero window should yield zero utilization")
	}
}

// PS-bus interconnect: explicit hand-offs delay a pipelined two-task
// chain by at least one transfer per consumed item relative to folded.
func TestPSBusDelaysPipelinedHandoffs(t *testing.T) {
	run := func(icfg interconnect.Config) sim.Duration {
		eng := sim.NewEngine()
		cfg := hv.DefaultConfig()
		cfg.Interconnect = icfg
		board := cfg.Board
		h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), board))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Submit(apps.MustGraph(apps.Rendering3D), 10, 3, 0); err != nil {
			t.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Response
	}
	folded := run(interconnect.DefaultConfig())
	ps := run(interconnect.DefaultPSBus())
	if ps <= folded {
		t.Fatalf("PS-bus response %v not slower than folded %v", ps, folded)
	}
	noc := run(interconnect.DefaultNoC())
	if noc > ps {
		t.Fatalf("NoC response %v slower than PS bus %v", noc, ps)
	}
}

// A preempted low-priority application always recovers candidacy and
// completes even under a sustained stream of high-priority arrivals
// (candidate starvation regression).
func TestPreemptedLowPriorityRecovers(t *testing.T) {
	board := hv.DefaultConfig().Board
	subs := []submission{
		{apps.OpticalFlow, 15, 1, 0}, // low priority, pipelines wide
	}
	// 20 high-priority short apps arriving every 300 ms keep the
	// threshold pinned at 9 for several seconds.
	for i := 0; i < 20; i++ {
		subs = append(subs, submission{apps.LeNet, 3, 9, sim.Time(sim.Second) + sim.Time(i)*sim.Time(300*sim.Millisecond)})
	}
	res, _ := runSuite(t, core.New(core.DefaultOptions(), board), subs, nil)
	for _, r := range res {
		if r.App == apps.OpticalFlow && r.Response <= 0 {
			t.Fatal("low-priority app never completed")
		}
	}
}

// Feature matrix smoke: every policy completes under every combination
// of explicit PS-bus interconnect and fault injection.
func TestFeatureMatrixSmoke(t *testing.T) {
	features := []struct {
		name string
		mut  func(*hv.Config)
	}{
		{"psbus", func(c *hv.Config) { c.Interconnect = interconnect.DefaultPSBus() }},
		{"faults", func(c *hv.Config) {
			c.Board.NewInjector = faults.Uniform(0.1, 5).MustFactory()
			c.Board.MaxRetries = 50
		}},
		{"psbus+faults", func(c *hv.Config) {
			c.Interconnect = interconnect.DefaultPSBus()
			c.Board.NewInjector = faults.Uniform(0.1, 5).MustFactory()
			c.Board.MaxRetries = 50
		}},
	}
	for name, mk := range policies() {
		for _, f := range features {
			name, mk, f := name, mk, f
			t.Run(name+"/"+f.name, func(t *testing.T) {
				eng := sim.NewEngine()
				cfg := hv.DefaultConfig()
				f.mut(&cfg)
				h, err := hv.New(eng, cfg, mk())
				if err != nil {
					t.Fatal(err)
				}
				subs := []submission{
					{apps.LeNet, 3, 9, 0},
					{apps.ImageCompression, 4, 1, 100 * sim.Time(sim.Millisecond)},
					{apps.Rendering3D, 2, 3, 200 * sim.Time(sim.Millisecond)},
				}
				for _, s := range subs {
					if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
						t.Fatal(err)
					}
				}
				res, err := h.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != len(subs) {
					t.Fatalf("%d results", len(res))
				}
				if h.LiveBuffers() != 0 {
					t.Fatal("buffers leaked")
				}
			})
		}
	}
}
