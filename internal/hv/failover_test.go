package hv_test

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/fpga"
	"nimblock/internal/hv"
	"nimblock/internal/metrics"
	"nimblock/internal/obs"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

func newFailoverHV(t *testing.T, cfg hv.Config) (*sim.Engine, *hv.Hypervisor) {
	t.Helper()
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
	if err != nil {
		t.Fatal(err)
	}
	return eng, h
}

// TestFreezeStallsHeartbeat pins the liveness contract: a frozen board's
// progress counter never advances again, while a live board under the
// same load keeps beating.
func TestFreezeStallsHeartbeat(t *testing.T) {
	eng, h := newFailoverHV(t, hv.DefaultConfig())
	if err := h.Submit(apps.MustGraph(apps.OpticalFlow), 4, 3, 0); err != nil {
		t.Fatal(err)
	}
	var atFreeze uint64
	eng.At(sim.Time(300*sim.Millisecond), func() {
		h.Freeze()
		atFreeze = h.Progress()
	})
	eng.RunUntil(sim.Time(10 * sim.Second))
	if atFreeze == 0 {
		t.Fatal("no heartbeat before the freeze")
	}
	if !h.Frozen() {
		t.Fatal("board not frozen")
	}
	if got := h.Progress(); got != atFreeze {
		t.Fatalf("frozen heartbeat advanced: %d -> %d", atFreeze, got)
	}
	if h.PendingCount() == 0 {
		t.Fatal("frozen board claims its work drained")
	}
}

// TestEvacuateConservation kills a board mid-run: retired results stay
// collectable, unfinished submissions come back as evacuees, and
// results + evacuees exactly cover the submissions.
func TestEvacuateConservation(t *testing.T) {
	eng, h := newFailoverHV(t, hv.DefaultConfig())
	// LeNet (129 ms nominal) retires before the crash; the OpticalFlow
	// pair (many seconds) is mid-flight when the board dies.
	if err := h.Submit(apps.MustGraph(apps.LeNet), 1, 9, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := h.Submit(apps.MustGraph(apps.OpticalFlow), 4, 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	var evs []hv.Evacuee
	eng.At(sim.Time(2*sim.Second), func() { evs = h.Evacuate() })
	eng.RunUntil(sim.Time(60 * sim.Second))
	if !h.Evacuated() {
		t.Fatal("board not marked evacuated")
	}
	res, err := h.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res)+len(evs) != 3 {
		t.Fatalf("%d results + %d evacuees != 3 submissions", len(res), len(evs))
	}
	if len(res) != 1 || res[0].App != apps.LeNet {
		t.Fatalf("retired-before-death results = %+v", res)
	}
	seen := map[int64]bool{}
	for i, ev := range evs {
		if ev.ID <= 0 || ev.App == nil || ev.WorkDone < 0 {
			t.Fatalf("evacuee %d malformed: %+v", i, ev)
		}
		if seen[ev.ID] {
			t.Fatalf("evacuee ID %d returned twice", ev.ID)
		}
		seen[ev.ID] = true
		if ev.WorkDone <= 0 {
			t.Fatalf("evacuee %d carried no work despite 2s of runtime: %+v", i, ev)
		}
	}
	if h.LiveBuffers() != 0 {
		t.Fatalf("%d buffers leaked across evacuation", h.LiveBuffers())
	}
}

// TestEvacuateCarriesSnapshotsAndSeedsResume is the end-to-end
// migration contract: snapshots evacuated from a dying board, seeded
// into a fresh one, let the submission finish with strictly less fabric
// work than a from-scratch run.
func TestEvacuateCarriesSnapshotsAndSeedsResume(t *testing.T) {
	cfg := hv.DefaultConfig()
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 20 * sim.Millisecond}
	eng, h := newFailoverHV(t, cfg)
	g := apps.MustGraph(apps.OpticalFlow)
	batch := 2
	if err := h.Submit(g, batch, 3, 0); err != nil {
		t.Fatal(err)
	}
	var evs []hv.Evacuee
	// 1 s is mid-item for OpticalFlow's 507 ms items, past several
	// periodic saves.
	eng.At(sim.Time(sim.Second), func() { evs = h.Evacuate() })
	eng.RunUntil(sim.Time(2 * sim.Second))
	if len(evs) != 1 {
		t.Fatalf("%d evacuees, want 1", len(evs))
	}
	ev := evs[0]
	if len(ev.Snapshots) == 0 {
		t.Fatal("no snapshots survived despite periodic checkpointing")
	}
	var migrated sim.Duration
	for _, s := range ev.Snapshots {
		if s.Progress <= 0 || s.Bytes <= 0 {
			t.Fatalf("snapshot %+v malformed", s)
		}
		migrated += s.Progress
	}

	// Resume on a fresh board.
	eng2, h2 := newFailoverHV(t, cfg)
	id, err := h2.SubmitID(g, batch, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2.SeedCheckpoints(id, ev.Snapshots)
	eng2.RunUntil(cfg.Horizon)
	res, err := h2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("%d results, want 1", len(res))
	}
	nominal := g.TotalWork() * sim.Duration(batch)
	if res[0].Run >= nominal {
		t.Fatalf("resumed run %v >= nominal %v: seeded checkpoints were not used", res[0].Run, nominal)
	}
	if nominal-res[0].Run > migrated {
		t.Fatalf("resumed board skipped %v but snapshots only carried %v", nominal-res[0].Run, migrated)
	}
}

// TestAbortDropsHedgeLoser pins Abort's contract: the aborted
// submission vanishes (no result, slots released, memory clean), the
// survivor completes, and a second abort reports not-found.
func TestAbortDropsHedgeLoser(t *testing.T) {
	eng, h := newFailoverHV(t, hv.DefaultConfig())
	g := apps.MustGraph(apps.OpticalFlow)
	loser, err := h.SubmitID(g, 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.SubmitID(apps.MustGraph(apps.Rendering3D), 2, 3, 0); err != nil {
		t.Fatal(err)
	}
	var ok bool
	var spent sim.Duration
	eng.At(sim.Time(700*sim.Millisecond), func() { ok, spent = h.Abort(loser) })
	eng.RunUntil(hv.DefaultConfig().Horizon)
	if !ok {
		t.Fatal("abort of an in-flight submission failed")
	}
	if spent <= 0 {
		t.Fatalf("aborted submission spent %v, want > 0 after 700ms", spent)
	}
	res, err := h.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].App != apps.Rendering3D {
		t.Fatalf("results after abort = %+v", res)
	}
	if again, _ := h.Abort(loser); again {
		t.Fatal("second abort of the same ID succeeded")
	}
	if h.LiveBuffers() != 0 {
		t.Fatalf("%d buffers leaked by abort", h.LiveBuffers())
	}
}

// A hedge-cancelled app's reconfiguration stream that dies with its
// slot takes the slot out of service like any other fatal fault: the
// board traces one slot-offline event and ends its slot timeline at
// the one usable slot it has left, so EffectiveSlots does not overstate
// capacity. LeNet's first stream runs from 0 to 80 ms; the abort at
// 1 ms leaves it in flight and slot 0 dies under it at 2 ms.
func TestAbortedStreamSlotDeathGoesOffline(t *testing.T) {
	cfg := hv.DefaultConfig()
	cfg.Board.Slots = 2
	cfg.Board.NewInjector = faults.MustParsePlan("dead slot=0 at=2ms").MustFactory()
	var kinds obs.Counting
	cfg.Observer = &kinds
	eng, h := newFailoverHV(t, cfg)
	id, err := h.SubmitID(apps.MustGraph(apps.LeNet), 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.At(sim.Time(sim.Millisecond), func() {
		if ok, _ := h.Abort(id); !ok {
			t.Error("abort of the configuring submission failed")
		}
	})
	eng.RunUntil(cfg.Horizon)
	if n := kinds.Count(trace.KindSlotOffline); n != 1 {
		t.Fatalf("%d slot-offline events, want 1", n)
	}
	tl := h.Recovery().Timeline
	if usable := h.Board().UsableSlots(); usable != 1 || tl[len(tl)-1].Usable != usable {
		t.Fatalf("board has %d usable slots, timeline %+v; want both at 1", usable, tl)
	}
	// Two slots until the death, one after it.
	end := sim.Time(sim.Second)
	death := tl[len(tl)-1].At
	want := (2*float64(death) + float64(end-death)) / float64(end)
	if got := metrics.EffectiveSlots(tl, end); got != want {
		t.Fatalf("EffectiveSlots %v, want %v with the death at %v", got, want, death)
	}
}

// TestSlowdownStretchesItems checks board-degrade: the same workload
// takes strictly longer under a 4x slowdown and still completes.
func TestSlowdownStretchesItems(t *testing.T) {
	run := func(factor float64) sim.Duration {
		eng, h := newFailoverHV(t, hv.DefaultConfig())
		if factor > 1 {
			h.SetSlowdown(factor)
		}
		if err := h.Submit(apps.MustGraph(apps.Rendering3D), 3, 3, 0); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(hv.DefaultConfig().Horizon)
		res, err := h.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Response
	}
	clean, slowed := run(1), run(4)
	if slowed <= clean {
		t.Fatalf("4x degrade did not slow the board: %v vs %v", slowed, clean)
	}
}

// TestAbortSpentNonDecreasingAcrossSave pins Abort's cost across a
// periodic checkpoint save. OpticalFlow's first item runs from 0.08 s;
// its first 64 MiB save pauses it from 0.180 s to 0.812 s. The compute
// folded into the paused attempt is spent work, so an abort later in
// the run never reports less than an abort earlier.
func TestAbortSpentNonDecreasingAcrossSave(t *testing.T) {
	cfg := hv.DefaultConfig()
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond, StateBytes: 64 << 20}
	spentAt := func(ms float64) sim.Duration {
		eng, h := newFailoverHV(t, cfg)
		id, err := h.SubmitID(apps.MustGraph(apps.OpticalFlow), 2, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		at := sim.Time(sim.Milliseconds(ms))
		var ok bool
		var spent sim.Duration
		eng.At(at, func() { ok, spent = h.Abort(id) })
		eng.RunUntil(at + 1)
		if !ok {
			t.Fatalf("abort at %v ms failed", ms)
		}
		return spent
	}
	prev, prevMs := sim.Duration(-1), 0.0
	for _, ms := range []float64{179.9, 180.1, 500, 811.999, 812.001, 820} {
		spent := spentAt(ms)
		if spent < prev {
			t.Fatalf("abort at %v ms spent %v, less than %v at %v ms", ms, spent, prev, prevMs)
		}
		prev, prevMs = spent, ms
	}
}

// staleTransferAbort aborts submission A on a one-slot board while a
// checkpoint transfer of its first item streams through the CAP: a
// periodic capture, or (restore) the restore of a snapshot seeded as if
// migrated in. FCFS reconfigures the freed slot for B at once, so B's
// stream queues behind A's transfer, whose completion is now stale. It
// must find the slot neither saving nor restoring and leave B alone: B
// keeps reconfiguring, runs every task once, and the invariant checker
// sees nothing wrong.
func staleTransferAbort(t *testing.T, restore bool) {
	t.Helper()
	chk := schedtest.NewChecker()
	var events []trace.Event
	cfg := hv.DefaultConfig()
	cfg.Board.Slots = 1
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond, StateBytes: 64 << 20}
	cfg.Observer = obs.Tee(chk, obs.Func(func(e trace.Event) { events = append(events, e) }))
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, fcfs.New())
	if err != nil {
		t.Fatal(err)
	}
	idA, err := h.SubmitID(apps.MustGraph(apps.OpticalFlow), 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	gB := apps.MustGraph(apps.LeNet)
	idB, err := h.SubmitID(gB, 1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A's first item starts once its 80 ms reconfiguration lands; a
	// 64 MiB transfer then holds the CAP for about 570 ms.
	abortAt := sim.Time(500 * sim.Millisecond)
	if restore {
		snap := hv.Snapshot{Task: 0, Item: 0, Progress: 20 * sim.Millisecond, Bytes: 64 << 20}
		h.SeedCheckpoints(idA, []hv.Snapshot{snap})
		chk.Seed(idA, snap.Task, snap.Item, snap.Progress)
		abortAt = sim.Time(300 * sim.Millisecond)
	}
	board := h.Board()
	eng.At(abortAt, func() {
		if !board.CAPBusy() || board.Slot(0).State != fpga.SlotLoaded || board.Stats().StateTransfers != 0 {
			t.Fatalf("no state transfer in flight at %v: CAP busy %v, slot %v", abortAt, board.CAPBusy(), board.Slot(0).State)
		}
		if ok, _ := h.Abort(idA); !ok {
			t.Fatal("abort of the transferring submission failed")
		}
		chk.Abandon(idA, eng.Now())
	})
	eng.At(abortAt+1, func() {
		if a, _, ok := h.SlotOccupant(0); !ok || a.ID != idB || board.Slot(0).State != fpga.SlotReconfiguring {
			t.Fatalf("freed slot not reconfiguring for B behind the stale transfer (occupied %v, slot %v)", ok, board.Slot(0).State)
		}
	})
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.Finish(len(res)); err != nil {
		t.Fatal(err)
	}
	if board.Stats().StateTransfers == 0 {
		t.Fatal("the stale transfer never completed")
	}
	if len(res) != 1 || res[0].AppID != idB || res[0].Reconfigurations != gB.NumTasks() {
		t.Fatalf("results = %+v, want B alone with %d reconfigurations", res, gB.NumTasks())
	}
	rec := h.Recovery()
	if rec.CheckpointSaves != 0 || rec.ResumedItems != 0 || rec.CheckpointFaults != 0 {
		t.Fatalf("the stale transfer was booked: %+v", rec)
	}
	for _, e := range events {
		switch e.Kind {
		case trace.KindCheckpointSave, trace.KindRestore, trace.KindCheckpointFault, trace.KindCheckpoint:
			if e.AppID != idB || e.Item < 0 {
				t.Fatalf("stale transfer traced as %+v", e)
			}
		}
	}
}

func TestStaleCaptureCompletionAfterAbort(t *testing.T) { staleTransferAbort(t, false) }

func TestStaleRestoreCompletionAfterAbort(t *testing.T) { staleTransferAbort(t, true) }
