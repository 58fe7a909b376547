package hv_test

import (
	"fmt"
	"testing"

	"nimblock/internal/hv"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// checkLedger fails the test unless the board's buffer counters equal
// a scan of every record's ledger.
func checkLedger(t *testing.T, h *hv.Hypervisor) {
	t.Helper()
	live, used := h.ScanBuffers()
	if h.LiveBuffers() != live || h.UsedBufferBytes() != used {
		t.Fatalf("at %v: counters read %d buffers and %d bytes, the records hold %d and %d",
			h.Now(), h.LiveBuffers(), h.UsedBufferBytes(), live, used)
	}
}

// TestBufferLedgerMatchesScan is the oracle for the buffer counters:
// over the lifecycle matrix (every fault kind, degrade, abort, freeze
// and evacuation, and migration of the evacuees onto a second board) in
// every checkpoint mode, plus periodic saves under NimblockCheckpoint,
// the counters equal a scan of every record after every event (and the
// load oracle, checkLoad, holds after each), and both boards end with
// no buffer held (runLifecycle). Stepping the boards one event at a
// time must not change the outcome.
func TestBufferLedgerMatchesScan(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 4
	}
	cases := []struct {
		mode   int
		policy string
	}{{modeOff, ""}, {modePeriodic, ""}, {modeOnDemand, ""}, {modePeriodic, "NimblockCheckpoint"}}
	steps, aborted, evacuees := 0, 0, 0
	for _, tc := range cases {
		for seed := int64(1); seed <= seeds; seed++ {
			c := goldenLifecycleCase(seed, tc.mode)
			c.policy = tc.policy
			want := runLifecycle(t, c)
			c.ledgerSteps = &steps
			got := runLifecycle(t, c)
			if got != want {
				t.Fatalf("mode %s %s seed %d: stepping changed the outcome:\n stepped %+v\n run     %+v",
					modeNames[tc.mode], tc.policy, seed, got, want)
			}
			checkLifecycleConservation(t, got)
			aborted += got.aborted
			evacuees += got.evacuees
		}
	}
	if aborted == 0 || evacuees == 0 {
		t.Fatalf("the matrix aborted %d and evacuated %d submissions; the oracle must cover both", aborted, evacuees)
	}
	t.Logf("checked the ledger after %d events", steps)
}

// fanGraph is n independent one-second tasks: each is a sink, so each
// holds its own buffer until it completes, and on n slots all n are
// configured before the first finishes.
func fanGraph(n int) *taskgraph.Graph {
	b := taskgraph.NewBuilder("fan")
	for i := 0; i < n; i++ {
		b.AddTask(fmt.Sprintf("t%d", i), sim.Second)
	}
	return b.MustBuild()
}

// A capacity of k buffers admits k live buffers, and the (k+1)-th
// allocation fails the run with the out-of-memory error.
func TestBufferCapacityIsExact(t *testing.T) {
	const n = 4
	run := func(k int) (peak int, err error) {
		cfg := hv.DefaultConfig()
		cfg.Board.Slots = n
		cfg.MemCapacity = int64(k) * cfg.BufferBytes
		eng := sim.NewEngine()
		h, err := hv.New(eng, cfg, fcfs.New())
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Submit(fanGraph(n), 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		for eng.Step() {
			checkLedger(t, h)
			peak = max(peak, h.LiveBuffers())
		}
		_, err = h.Collect()
		return peak, err
	}
	peak, err := run(n)
	if err != nil {
		t.Fatalf("capacity for %d buffers: %v", n, err)
	}
	if peak != n {
		t.Fatalf("peak of %d live buffers, want %d: the case does not fill the capacity", peak, n)
	}
	peak, err = run(n - 1)
	b := hv.DefaultConfig().BufferBytes
	want := fmt.Sprintf("mem: out of memory: %d used + %d requested > %d capacity", (n-1)*b, b, (n-1)*b)
	if err == nil || err.Error() != want {
		t.Fatalf("capacity for %d buffers: err = %v, want %q", n-1, err, want)
	}
	if peak != n-1 {
		t.Fatalf("peak of %d live buffers under a capacity of %d", peak, n-1)
	}
}

// The buffer memory must have a positive capacity and a positive
// buffer size; what the checks reject leaves no board behind.
func TestBufferConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	for _, tc := range []struct {
		name             string
		capacity, buffer int64
	}{
		{"zero capacity", 0, 1},
		{"negative capacity", -1, 1},
		{"zero buffer size", 1, 0},
		{"negative buffer size", 1, -1},
	} {
		cfg := hv.DefaultConfig()
		cfg.MemCapacity, cfg.BufferBytes = tc.capacity, tc.buffer
		if h, err := hv.New(eng, cfg, fcfs.New()); err == nil || h != nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	cfg := hv.DefaultConfig()
	cfg.MemCapacity, cfg.BufferBytes = 1, 1
	if _, err := hv.New(eng, cfg, fcfs.New()); err != nil {
		t.Errorf("room for one buffer rejected: %v", err)
	}
}
