package ckpt_test

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sched/ckpt"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// The rescue pass covers the gap PREMA token fairness leaves open: a
// low-priority batch that waited long enough keeps its candidacy (and
// therefore its slot allocation) when a priority-9 application arrives,
// so the core policy sees no over-consumer and never preempts — the
// arrival would wait out a full batch boundary. The scenarios below
// build exactly that state: occupants whose tokens have crossed the
// highest priority level, then a late high-priority arrival.

func TestNameAndPipelining(t *testing.T) {
	s := ckpt.New(core.DefaultOptions(), hv.DefaultConfig().Board)
	if s.Name() != "NimblockCheckpoint" {
		t.Fatalf("name %q", s.Name())
	}
	if !s.Pipelining() {
		t.Fatal("default options disable pipelining")
	}
}

// saturate seeds a world whose slots each run one single-task
// priority-3 batch of 65-second items, with one Schedule call at t=0 so
// the token pool sees the occupants. By 450 s their tokens are past the
// highest priority level: they will keep candidacy (and allocation)
// against any arrival, so the core pass alone never preempts them.
func saturate(t *testing.T, s *ckpt.Scheduler, slots int, batches ...int) (*schedtest.World, []*sched.App) {
	t.Helper()
	w := schedtest.NewWorld(slots)
	g := apps.Synthetic("bigjob", 1, 65*sim.Second)
	var occ []*sched.App
	for i, batch := range batches {
		a := schedtest.NewApp(t, int64(i+1), g, batch, 3, 0)
		w.Occupy(t, i, a, 0)
		occ = append(occ, a)
		w.AppList = append(w.AppList, a)
	}
	s.Schedule(w, sched.ReasonTick)
	if len(w.Preempts) != 0 {
		t.Fatalf("preempted with nothing pending: %v", w.Preempts)
	}
	return w, occ
}

// arrive introduces a priority-9 LeNet at clock time now. Its recorded
// arrival time controls whether it is already past its SLO slack.
func arrive(t *testing.T, w *schedtest.World, now, arrival sim.Time) *sched.App {
	t.Helper()
	w.Clock = now
	a := schedtest.NewApp(t, 99, apps.MustGraph(apps.LeNet), 4, 9, arrival)
	w.AppList = append(w.AppList, a)
	return a
}

// Past its SLO slack, the pending priority-9 app triggers a preemption
// of the lower-priority mid-item occupant with the most work remaining.
func TestRescuePreemptsBusiestLowerPriorityVictim(t *testing.T) {
	s := ckpt.New(core.DefaultOptions(), hv.DefaultConfig().Board)
	w, _ := saturate(t, s, 2, 2, 6) // slot 1 holds the bigger batch
	arrive(t, w, sim.Time(450*sim.Second), 0)
	s.Schedule(w, sched.ReasonTick)
	if len(w.Preempts) != 1 || w.Preempts[0] != 1 {
		t.Fatalf("preempts %v, want exactly slot 1 (busiest victim)", w.Preempts)
	}
}

// An app that can still meet its deadline by starting now is left to
// wait for a boundary: no mid-item preemption.
func TestNoRescueWhileOnTrack(t *testing.T) {
	s := ckpt.New(core.DefaultOptions(), hv.DefaultConfig().Board)
	w, _ := saturate(t, s, 2, 2, 6)
	arrive(t, w, sim.Time(450*sim.Second), sim.Time(450*sim.Second)) // just arrived
	s.Schedule(w, sched.ReasonTick)
	if len(w.Preempts) != 0 {
		t.Fatalf("rescued an on-track app: preempts %v", w.Preempts)
	}
}

// With a free slot the core pass places the app; nothing is preempted.
func TestNoRescueWithFreeSlot(t *testing.T) {
	s := ckpt.New(core.DefaultOptions(), hv.DefaultConfig().Board)
	w, _ := saturate(t, s, 3, 2, 6) // slot 2 stays free
	urgent := arrive(t, w, sim.Time(450*sim.Second), 0)
	s.Schedule(w, sched.ReasonTick)
	if len(w.Preempts) != 0 {
		t.Fatalf("preempted despite a free slot: %v", w.Preempts)
	}
	if urgent.SlotsUsed() == 0 {
		t.Fatal("core pass did not place the urgent app in the free slot")
	}
}

// Only strictly lower-priority occupants are victims.
func TestNoRescueOfEqualPriorityVictims(t *testing.T) {
	s := ckpt.New(core.DefaultOptions(), hv.DefaultConfig().Board)
	w := schedtest.NewWorld(1)
	peer := schedtest.NewApp(t, 1, apps.Synthetic("bigjob", 1, 65*sim.Second), 4, 9, 0)
	w.Occupy(t, 0, peer, 0)
	w.AppList = []*sched.App{peer}
	s.Schedule(w, sched.ReasonTick)
	arrive(t, w, sim.Time(450*sim.Second), 0)
	s.Schedule(w, sched.ReasonTick)
	if len(w.Preempts) != 0 {
		t.Fatalf("preempted an equal-priority occupant: %v", w.Preempts)
	}
}

// A preemption already in flight suppresses further rescues: at most
// one outstanding request at a time.
func TestNoRescueWhilePreemptionInFlight(t *testing.T) {
	s := ckpt.New(core.DefaultOptions(), hv.DefaultConfig().Board)
	w, _ := saturate(t, s, 2, 2, 6)
	arrive(t, w, sim.Time(450*sim.Second), 0)
	w.Preempted[0] = true
	s.Schedule(w, sched.ReasonTick)
	if len(w.Preempts) != 0 {
		t.Fatalf("issued a second preemption: %v", w.Preempts)
	}
}

// rescueRun drives the full hypervisor: two priority-3 DigitRecognition
// batches (65-second items, boundary at ~525 s) saturate a 2-slot board
// long enough to accumulate past the top token threshold, then a
// priority-9 LeNet arrives mid-item at 420 s. Returns the LeNet result.
func rescueRun(t *testing.T, policy sched.Scheduler) (hv.Result, *trace.Log, *hv.Hypervisor) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	cfg.Board.Slots = 2
	cfg.EnableTrace = true
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true} // on-demand only
	h, err := hv.New(eng, cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	dr := apps.MustGraph(apps.DigitRecognition)
	if err := h.Submit(dr, 8, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(dr, 8, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(apps.MustGraph(apps.LeNet), 4, 9, sim.Time(420*sim.Second)); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Priority == 9 {
			return r, h.Trace(), h
		}
	}
	t.Fatal("priority-9 app missing from results")
	return hv.Result{}, nil, nil
}

// The headline scenario: mid-batch SLO rescue checkpoints a victim,
// frees its slot for the priority-9 arrival, and resumes the victim
// afterwards — cutting the high-priority response from boundary-wait
// scale (minutes behind 65-second DigitRecognition items) to seconds.
func TestRescueImprovesHighPriorityResponse(t *testing.T) {
	board := hv.DefaultConfig().Board
	board.Slots = 2
	plain, plainLog, _ := rescueRun(t, core.New(core.DefaultOptions(), board))
	rescued, log, h := rescueRun(t, ckpt.New(core.DefaultOptions(), board))

	if n := plainLog.Count(trace.KindCheckpoint); n != 0 {
		t.Fatalf("plain Nimblock issued %d mid-item preemptions; the scenario no longer isolates the rescue pass", n)
	}
	if n := log.Count(trace.KindCheckpoint); n == 0 {
		t.Fatal("no rescue preemption traced")
	}
	if n := log.Count(trace.KindRestore); n == 0 {
		t.Fatal("the rescued victim never resumed from its checkpoint")
	}
	if rec := h.Recovery(); rec.SavedWork <= 0 {
		t.Fatalf("victim progress was not preserved: %+v", rec)
	}
	if rescued.Response >= plain.Response {
		t.Fatalf("rescue did not help: response %v with rescue, %v without", rescued.Response, plain.Response)
	}
	// The win is structural, not marginal: the plain run waits out at
	// least one 65-second item, the rescued run does not.
	if rescued.Response*10 > plain.Response {
		t.Fatalf("rescue win below 10x: %v vs %v", rescued.Response, plain.Response)
	}
}
