package hv_test

import (
	"reflect"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/trace"
)

// These tests drive on-demand checkpoint preemption: with the subsystem
// enabled and no Period, a mid-item preemption request captures state at
// the latest passed preemption point, and the item later resumes from
// that snapshot.

// checkpointConfig enables on-demand checkpointing with state sized so
// one capture (or restore) takes the given time through the CAP.
func checkpointConfig(capture sim.Duration) hv.Config {
	cfg := hv.DefaultConfig()
	cfg.Checkpoint = hv.CheckpointConfig{
		Enabled:    true,
		StateBytes: int64(capture.Seconds() * cfg.Board.CAPBytesPerSec),
	}
	return cfg
}

// preemptWorkload provokes mid-item preemption: a long-item app hogs
// slots, then high-priority newcomers arrive.
func preemptWorkload() []submission {
	return []submission{
		{apps.OpticalFlow, 20, 1, 0}, // 507 ms items, pipelines wide
		{apps.AlexNet, 8, 1, 100 * sim.Time(sim.Millisecond)},
		{apps.LeNet, 5, 9, 2 * sim.Time(sim.Second)},
		{apps.Rendering3D, 5, 9, 2 * sim.Time(sim.Second)},
		{apps.ImageCompression, 5, 9, 2 * sim.Time(sim.Second)},
	}
}

func TestCheckpointPreemptionHappens(t *testing.T) {
	cfg := checkpointConfig(10 * sim.Millisecond)
	lg := traced(&cfg)
	res, h := runNimblock(t, cfg, preemptWorkload())
	ckpts := lg.Count(trace.KindCheckpoint)
	if ckpts == 0 {
		t.Fatal("no mid-item checkpoints happened")
	}
	preempts := 0
	for _, r := range res {
		preempts += r.Preemptions
	}
	if preempts < ckpts {
		t.Fatalf("accounted preemptions %d < checkpoints %d", preempts, ckpts)
	}
	// Work conservation: every app's run time covers at least its
	// nominal work (work past a snapshot is wasted, never lost).
	for _, r := range res {
		g := apps.MustGraph(r.App)
		want := g.TotalWork() * sim.Duration(r.Batch)
		if r.Run < want {
			t.Errorf("%s: run %v < nominal %v (checkpoint lost work)", r.App, r.Run, want)
		}
	}
	if h.LiveBuffers() != 0 {
		t.Fatalf("%d buffers leaked", h.LiveBuffers())
	}
}

func TestCheckpointedItemsResumeExactlyOnceEach(t *testing.T) {
	cfg := checkpointConfig(sim.Millisecond)
	lg := traced(&cfg)
	runNimblock(t, cfg, preemptWorkload())
	type key struct {
		app        int64
		task, item int
	}
	starts := map[key]int{}
	ckpts := map[key]int{}
	dones := map[key]int{}
	for _, e := range lg.Events() {
		k := key{e.AppID, e.Task, e.Item}
		switch e.Kind {
		case trace.KindItemStart:
			starts[k]++
		case trace.KindCheckpoint:
			ckpts[k]++
		case trace.KindItemDone:
			dones[k]++
		}
	}
	if len(ckpts) == 0 {
		t.Fatal("no mid-item checkpoints happened")
	}
	for k, n := range dones {
		if n != 1 {
			t.Fatalf("item %+v finished %d times", k, n)
		}
		if starts[k] != 1+ckpts[k] {
			t.Fatalf("item %+v: %d starts for %d checkpoints", k, starts[k], ckpts[k])
		}
	}
	for k := range starts {
		if dones[k] != 1 {
			t.Fatalf("item %+v never finished", k)
		}
	}
}

func TestCheckpointFreesSlotFasterThanBatchBoundary(t *testing.T) {
	// Compare the high-priority newcomers' responses under batch vs
	// cheap-checkpoint preemption: with 507 ms / 1.6 s items in flight,
	// near-free capture must serve newcomers at least as fast.
	batchRes, _ := runNimblock(t, hv.DefaultConfig(), preemptWorkload())
	ckptRes, _ := runNimblock(t, checkpointConfig(sim.Millisecond), preemptWorkload())
	var batchHigh, ckptHigh sim.Duration
	for i := range batchRes {
		if batchRes[i].Priority == 9 {
			batchHigh += batchRes[i].Response
			ckptHigh += ckptRes[i].Response
		}
	}
	if ckptHigh > batchHigh {
		t.Fatalf("cheap checkpointing slower for high-priority apps: %v vs %v", ckptHigh, batchHigh)
	}
}

func TestCheckpointConfigValidation(t *testing.T) {
	for _, c := range []hv.CheckpointConfig{
		{Enabled: true, StateBytes: -1},
		{Enabled: true, DefaultPoints: -1},
	} {
		cfg := hv.DefaultConfig()
		cfg.Checkpoint = c
		if _, err := hv.New(sim.NewEngine(), cfg, core.New(core.DefaultOptions(), cfg.Board)); err == nil {
			t.Fatalf("negative parameter accepted: %+v", c)
		}
	}
}

func TestCheckpointDeterminism(t *testing.T) {
	ca, cb := checkpointConfig(5*sim.Millisecond), checkpointConfig(5*sim.Millisecond)
	la, lb := traced(&ca), traced(&cb)
	a, _ := runNimblock(t, ca, preemptWorkload())
	b, _ := runNimblock(t, cb, preemptWorkload())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results diverged:\n%+v\n%+v", a, b)
	}
	if la.Dump() != lb.Dump() {
		t.Fatal("identical checkpoint runs diverged")
	}
}

// A disabled subsystem ignores its other knobs: a Period without
// Enabled must arm no periodic saves, leaving the run identical to the
// zero config — results and recovery statistics alike. One graph
// declares a preemption point and its state size, so a stray periodic
// save would have something to capture.
func TestDisabledCheckpointIgnoresPeriod(t *testing.T) {
	b := taskgraph.NewBuilder("declared")
	id := b.AddTask("t0", 100*sim.Millisecond)
	b.SetCheckpoints(id, 0.5)
	b.SetTaskState(id, 1<<20)
	declared, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(c hv.CheckpointConfig) ([]hv.Result, hv.RecoveryStats) {
		cfg := ckptChaosConfig(false)
		cfg.Checkpoint = c
		h, err := hv.New(sim.NewEngine(), cfg, core.New(core.DefaultOptions(), cfg.Board))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ckptChaosWorkload() {
			if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Submit(declared, 8, 5, 0); err != nil {
			t.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, h.Recovery()
	}
	zr, zrec := run(hv.CheckpointConfig{})
	pr, prec := run(hv.CheckpointConfig{Enabled: false, Period: 50 * sim.Millisecond})
	if !reflect.DeepEqual(zr, pr) {
		t.Fatalf("results diverged:\n%+v\n%+v", zr, pr)
	}
	if !reflect.DeepEqual(zrec, prec) {
		t.Fatalf("recovery diverged:\n%+v\n%+v", zrec, prec)
	}
}
