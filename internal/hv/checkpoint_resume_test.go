package hv_test

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/hv"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/trace"
)

// This file exercises the full checkpoint/restore subsystem
// (Config.Checkpoint): CAP-serialized size-proportional state capture,
// periodic saves at preemption points, and resume-instead-of-re-execute
// recovery after watchdog kills and slot failures.

// slowPlan slows items down hard enough that the watchdog kills first
// attempts: factor 4 with WatchdogFactor 2 means a slowed item is killed
// at ~half its stretched latency, so without checkpoints all progress is
// lost and the item re-rolls from scratch.
const slowPlan = `
seed 7
slow prob=0.6 factor=4 until=120s
`

func ckptChaosConfig(enabled bool) hv.Config {
	cfg := hv.DefaultConfig()
	cfg.Board.NewInjector = faults.MustParsePlan(slowPlan).MustFactory()
	cfg.WatchdogFactor = 2
	cfg.WatchdogGrace = 20 * sim.Millisecond
	if enabled {
		cfg.Checkpoint = hv.CheckpointConfig{
			Enabled: true,
			Period:  50 * sim.Millisecond,
		}
	}
	return cfg
}

func ckptChaosWorkload() []submission {
	return []submission{
		{apps.LeNet, 6, 9, 0},
		{apps.OpticalFlow, 8, 3, 0},
		{apps.ImageCompression, 6, 3, 200 * sim.Time(sim.Millisecond)},
		{apps.Rendering3D, 8, 1, 400 * sim.Time(sim.Millisecond)},
		{apps.DigitRecognition, 6, 9, 600 * sim.Time(sim.Millisecond)},
	}
}

// TestCheckpointingReducesWastedWork is the headline regression test:
// the same seed and workload with checkpointing enabled must save work
// (SavedWork > 0) and waste strictly less fabric time than the same run
// without checkpointing.
func TestCheckpointingReducesWastedWork(t *testing.T) {
	_, plain := runNimblock(t, ckptChaosConfig(false), ckptChaosWorkload())
	_, ckpt := runNimblock(t, ckptChaosConfig(true), ckptChaosWorkload())
	pr, cr := plain.Recovery(), ckpt.Recovery()
	if pr.WatchdogKills == 0 {
		t.Fatal("plan injected no watchdog kills; the scenario tests nothing")
	}
	if cr.ResumedItems == 0 || cr.SavedWork <= 0 {
		t.Fatalf("checkpointed run resumed nothing: %+v", cr)
	}
	if cr.WastedWork >= pr.WastedWork {
		t.Fatalf("checkpointing did not reduce wasted work: with %v, without %v", cr.WastedWork, pr.WastedWork)
	}
	if cr.CheckpointOverhead <= 0 {
		t.Fatal("state moved through the CAP for free")
	}
	if plain.Recovery().SavedWork != 0 || pr.ResumedItems != 0 || pr.CheckpointOverhead != 0 {
		t.Fatalf("non-checkpointed run reports checkpoint stats: %+v", pr)
	}
}

// Watchdog-killed items must resume from their snapshot: every restore
// follows a save of the same (app, task, item), and resumed progress
// never exceeds what was captured.
func TestWatchdogKillResumesFromCheckpoint(t *testing.T) {
	cfg := ckptChaosConfig(true)
	lg := traced(&cfg)
	_, h := runNimblock(t, cfg, ckptChaosWorkload())
	saved := map[[3]int64]sim.Duration{}
	restores := 0
	for _, e := range lg.Events() {
		key := [3]int64{e.AppID, int64(e.Task), int64(e.Item)}
		switch e.Kind {
		case trace.KindCheckpointSave, trace.KindCheckpoint:
			if e.Progress > 0 {
				if e.Progress < saved[key] {
					t.Fatalf("snapshot progress regressed for %v: %v after %v", key, e.Progress, saved[key])
				}
				saved[key] = e.Progress
			}
		case trace.KindRestore:
			restores++
			got, ok := saved[key]
			if !ok {
				t.Fatalf("restore without a prior checkpoint: %v", e)
			}
			if e.Progress != got {
				t.Fatalf("restored progress %v, last snapshot %v", e.Progress, got)
			}
			if e.Dur <= 0 {
				t.Fatalf("restore with no CAP transfer time: %v", e)
			}
		}
	}
	if restores == 0 {
		t.Fatal("no restores traced")
	}
	rec := h.Recovery()
	if rec.ResumedItems != restores {
		t.Fatalf("ResumedItems %d, traced restores %d", rec.ResumedItems, restores)
	}
}

// An on-demand checkpoint preemption mid-item must capture state, free
// the slot for the preemptor, and later resume the item from the
// snapshot rather than re-running it from scratch.
func TestOnDemandCheckpointPreemption(t *testing.T) {
	g := apps.MustGraph(apps.LeNet)
	cfg := hv.DefaultConfig()
	cfg.Board.Slots = 1
	lg := traced(&cfg)
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 0} // on-demand only
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, fcfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(g, 4, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Ask for a mid-item preemption once the first item is safely in
	// flight (after reconfiguration, mid first item, past a point).
	fired := false
	eng.At(sim.Time(600*sim.Millisecond), func() {
		if _, _, ok := h.SlotOccupant(0); ok && !h.SlotWaiting(0) {
			fired = true
			if err := h.RequestPreempt(0); err != nil {
				t.Errorf("RequestPreempt: %v", err)
			}
		}
	})
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Skip("first item was not in flight at the probe time; timeline shifted")
	}
	if n := lg.Count(trace.KindCheckpoint); n == 0 {
		t.Fatal("no checkpoint preemption traced")
	}
	if n := lg.Count(trace.KindRestore); n == 0 {
		t.Fatal("preempted item did not resume from its checkpoint")
	}
	rec := h.Recovery()
	if rec.SavedWork <= 0 {
		t.Fatalf("no work saved: %+v", rec)
	}
	// The run must still account at least the nominal batch work.
	want := g.TotalWork() * sim.Duration(4)
	if res[0].Run < want {
		t.Fatalf("run time %v below nominal batch work %v", res[0].Run, want)
	}
}

// Lost and corrupt checkpoints force from-scratch re-execution but must
// never wedge the run.
func TestCheckpointFaultsFallBackToScratch(t *testing.T) {
	cfg := ckptChaosConfig(true)
	cfg.Board.NewInjector = faults.MustParsePlan(slowPlan + "lost prob=1\n").MustFactory()
	lg := traced(&cfg)
	_, h := runNimblock(t, cfg, ckptChaosWorkload())
	rec := h.Recovery()
	if rec.CheckpointFaults == 0 {
		t.Fatal("lost-checkpoint plan injected no checkpoint faults")
	}
	if rec.ResumedItems != 0 || rec.SavedWork != 0 {
		t.Fatalf("every checkpoint was lost yet items resumed: %+v", rec)
	}
	if lg.Count(trace.KindCheckpointFault) != rec.CheckpointFaults {
		t.Fatal("traced checkpoint faults disagree with recovery stats")
	}

	cfg = ckptChaosConfig(true)
	cfg.Board.NewInjector = faults.MustParsePlan(slowPlan + "corrupt prob=1\n").MustFactory()
	_, h = runNimblock(t, cfg, ckptChaosWorkload())
	rec = h.Recovery()
	if rec.CheckpointFaults == 0 {
		t.Fatal("corrupt-checkpoint plan injected no checkpoint faults")
	}
	if rec.ResumedItems != 0 {
		t.Fatalf("every checkpoint was corrupt yet items resumed: %+v", rec)
	}
	// Corrupt restores still pay the CAP transfer before failing.
	if rec.CheckpointOverhead <= 0 {
		t.Fatal("corrupt restores paid no transfer time")
	}
}

// Declared preemption points and state sizes steer the subsystem: a
// graph with one late point checkpoints only there, and its declared
// state size prices the transfer.
func TestDeclaredPreemptionPoints(t *testing.T) {
	// One 100 ms task with a single point at 80% and 2 MiB of state.
	b := taskgraph.NewBuilder("declared")
	id := b.AddTask("t0", 100*sim.Millisecond)
	b.SetCheckpoints(id, 0.8)
	b.SetTaskState(id, 2<<20)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := hv.DefaultConfig()
	cfg.Board.Slots = 1
	lg := traced(&cfg)
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 10 * sim.Millisecond}
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, fcfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(g, 2, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(); err != nil {
		t.Fatal(err)
	}
	saves := lg.Filter(func(e trace.Event) bool { return e.Kind == trace.KindCheckpointSave })
	if len(saves) != 2 { // one per item, only at the 80% point
		t.Fatalf("saves = %d, want one per item:\n%s", len(saves), lg.Dump())
	}
	wantXfer := h.Board().StateTransferTime(2 << 20)
	for _, e := range saves {
		if e.Progress != 80*sim.Millisecond {
			t.Fatalf("snapshot at %v, want 80ms", e.Progress)
		}
		if e.Dur < wantXfer {
			t.Fatalf("save transfer %v below CAP cost %v for 2 MiB", e.Dur, wantXfer)
		}
	}
}

// The full invariant checker accepts a real checkpointed chaos run:
// snapshot monotonicity, restore-only-from-saved-state, item
// conservation across kills and resumes, and CAP serialization of the
// uniform-size state transfers.
func TestCheckpointRunSatisfiesInvariants(t *testing.T) {
	cfg := ckptChaosConfig(true)
	lg := traced(&cfg)
	res, h := runNimblock(t, cfg, ckptChaosWorkload())
	c := schedtest.NewChecker()
	c.MinReconfigGap = 0
	c.MinStateXferGap = h.Board().StateTransferTime(hv.DefaultStateBytes)
	lg.Replay(c)
	if err := c.Finish(len(res)); err != nil {
		t.Fatal(err)
	}
}

// Checkpoint runs must stay deterministic: identical configs produce
// byte-identical traces.
func TestCheckpointSubsystemDeterminism(t *testing.T) {
	c1, c2 := ckptChaosConfig(true), ckptChaosConfig(true)
	l1, l2 := traced(&c1), traced(&c2)
	runNimblock(t, c1, ckptChaosWorkload())
	runNimblock(t, c2, ckptChaosWorkload())
	if l1.Dump() != l2.Dump() {
		t.Fatal("identical checkpoint runs diverged")
	}
}

func TestCheckpointConfigRejectsBadParameters(t *testing.T) {
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: -1}
	if _, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board)); err == nil {
		t.Fatal("negative period accepted")
	}
}
