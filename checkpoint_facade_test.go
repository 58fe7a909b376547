package nimblock

import (
	"testing"
	"time"
)

// ckptFacadeSystem builds a system under a slow+hang fault plan with
// the watchdog armed — the scenario where resuming from checkpoints
// (instead of re-executing killed items) pays.
func ckptFacadeSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	cfg.FaultPlan = "seed 7\nslow prob=0.6 factor=4 until=120s\n"
	cfg.WatchdogFactor = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{LeNet, OpticalFlow, ImageCompression, Rendering3D} {
		app, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Submit(app, 6, PriorityMedium, time.Duration(i)*200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestCheckpointFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkpoint = CheckpointConfig{Enabled: true, Period: 50 * time.Millisecond}
	sys := ckptFacadeSystem(t, cfg)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rec := sys.Recovery()
	if rec.WatchdogKills == 0 {
		t.Fatal("plan killed nothing; the scenario tests nothing")
	}
	if rec.ResumedItems == 0 || rec.SavedWork <= 0 || rec.CheckpointSaves == 0 {
		t.Fatalf("checkpointing reported no resumes: %+v", rec)
	}
	if rec.CheckpointOverhead <= 0 {
		t.Fatal("state moved through the configuration port for free")
	}

	// Same seed and workload without checkpointing: strictly more work
	// is wasted, and no checkpoint stats appear.
	plain := ckptFacadeSystem(t, DefaultConfig())
	if _, err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	prec := plain.Recovery()
	if prec.ResumedItems != 0 || prec.SavedWork != 0 || prec.CheckpointOverhead != 0 {
		t.Fatalf("non-checkpointed run reports checkpoint stats: %+v", prec)
	}
	if rec.WastedWork >= prec.WastedWork {
		t.Fatalf("checkpointing did not reduce wasted work: %v with, %v without", rec.WastedWork, prec.WastedWork)
	}
}

func TestCheckpointAlgorithmOnFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgoNimblockCheckpoint
	cfg.Checkpoint = CheckpointConfig{Enabled: true}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Algorithm(); got != "NimblockCheckpoint" {
		t.Fatalf("algorithm %q", got)
	}
	app, err := Benchmark(LeNet)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(app, 4, PriorityHigh, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Response <= 0 {
		t.Fatalf("unexpected results %+v", res)
	}
}
