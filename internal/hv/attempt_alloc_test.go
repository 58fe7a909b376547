package hv_test

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/hv"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sim"
)

// checkpointedBoard is a one-slot board running one long OpticalFlow
// batch with a watchdog armed on every item and a periodic checkpoint
// every 10 ms, so its events are item completions, watchdog re-arms,
// save timers, and CAP state transfers.
func checkpointedBoard(tb testing.TB) (*sim.Engine, *hv.Hypervisor) {
	tb.Helper()
	cfg := hv.DefaultConfig()
	cfg.Board.Slots = 1
	cfg.WatchdogFactor = 4
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 10 * sim.Millisecond, StateBytes: 64 << 10}
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, fcfs.New())
	if err != nil {
		tb.Fatal(err)
	}
	if err := h.Submit(apps.MustGraph(apps.OpticalFlow), 200, 3, 0); err != nil {
		tb.Fatal(err)
	}
	return eng, h
}

// Once a checkpointed attempt is running, the hypervisor's attempt
// path allocates nothing: item completions, watchdog and periodic-save
// timers, and the captures they stream through the CAP all reuse the
// slot's bound callbacks and runtime state.
func TestCheckpointedAttemptZeroAlloc(t *testing.T) {
	eng, h := checkpointedBoard(t)
	eng.RunUntil(sim.Time(2 * sim.Second))
	a := h.Apps()[0]
	saves, items, start := h.Recovery().CheckpointSaves, a.DoneCount(0), eng.Now()
	if n := testing.AllocsPerRun(300, func() { eng.Step() }); n != 0 {
		t.Fatalf("checkpointed attempt allocates %v per event, want 0", n)
	}
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	// The window must cover the whole cycle: several items, their saves,
	// and a scheduling tick.
	if h.Recovery().CheckpointSaves <= saves || a.DoneCount(0) < items+2 || eng.Now().Sub(start) < 400*sim.Millisecond {
		t.Fatalf("window too short: %d saves, %d items over %v",
			h.Recovery().CheckpointSaves-saves, a.DoneCount(0)-items, eng.Now().Sub(start))
	}
}
