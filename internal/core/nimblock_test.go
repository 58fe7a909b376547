package core

import (
	"fmt"
	"slices"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/fpga"
	"nimblock/internal/hls"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// fakeWorld is a minimal sched.World for policy unit tests.
type fakeWorld struct {
	now       sim.Time
	slots     int
	occupants map[int]occ // slot -> occupant
	waiting   map[int]bool
	preempt   map[int]bool
	offline   map[int]bool
	capBusy   bool
	apps      []*sched.App

	reconfigs []string
	preempts  []int
}

type occ struct {
	app  *sched.App
	task int
}

func newFakeWorld(slots int) *fakeWorld {
	return &fakeWorld{
		slots:     slots,
		occupants: map[int]occ{},
		waiting:   map[int]bool{},
		preempt:   map[int]bool{},
		offline:   map[int]bool{},
	}
}

func (w *fakeWorld) Now() sim.Time         { return w.now }
func (w *fakeWorld) NumSlots() int         { return w.slots }
func (w *fakeWorld) UsableSlots() int      { return w.slots - len(w.offline) }
func (w *fakeWorld) SlotUsable(s int) bool { return !w.offline[s] }
func (w *fakeWorld) CAPBusy() bool         { return w.capBusy }
func (w *fakeWorld) Apps() []*sched.App    { return w.apps }

func (w *fakeWorld) FreeSlots() []int {
	var free []int
	for s := 0; s < w.slots; s++ {
		if _, ok := w.occupants[s]; !ok {
			free = append(free, s)
		}
	}
	return free
}

func (w *fakeWorld) SlotOccupant(slot int) (*sched.App, int, bool) {
	o, ok := w.occupants[slot]
	return o.app, o.task, ok
}

func (w *fakeWorld) SlotWaiting(slot int) bool   { return w.waiting[slot] }
func (w *fakeWorld) PreemptRequested(s int) bool { return w.preempt[s] }

func (w *fakeWorld) TenantService(string) sim.Duration { return 0 }
func (w *fakeWorld) RequestPreempt(slot int) error {
	w.preempt[slot] = true
	w.preempts = append(w.preempts, slot)
	return nil
}

func (w *fakeWorld) Reconfigure(slot int, a *sched.App, task int) error {
	if _, ok := w.occupants[slot]; ok {
		return fmt.Errorf("slot %d occupied", slot)
	}
	if err := a.MarkConfiguring(task, slot); err != nil {
		return err
	}
	w.occupants[slot] = occ{a, task}
	w.reconfigs = append(w.reconfigs, fmt.Sprintf("%s#%d/t%d@s%d", a.Name, a.ID, task, slot))
	return nil
}

// occupy places an app's task in a slot as active.
func (w *fakeWorld) occupy(t *testing.T, slot int, a *sched.App, task int) {
	t.Helper()
	if err := a.MarkConfiguring(task, slot); err != nil {
		t.Fatal(err)
	}
	if err := a.MarkActive(task); err != nil {
		t.Fatal(err)
	}
	w.occupants[slot] = occ{a, task}
}

func mkApp(t *testing.T, id int64, name string, batch, prio int, arrival sim.Time) *sched.App {
	t.Helper()
	g := apps.MustGraph(name)
	a, err := sched.NewApp(id, g, hls.Analyze(g), batch, prio, arrival)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func board() fpga.Config { return fpga.DefaultConfig() }

func TestNames(t *testing.T) {
	cases := map[string]Options{
		"Nimblock":                {Preemption: true, Pipelining: true},
		"NimblockNoPreempt":       {Pipelining: true},
		"NimblockNoPipe":          {Preemption: true},
		"NimblockNoPreemptNoPipe": {},
	}
	for want, opts := range cases {
		s := New(opts, board())
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
		if s.Pipelining() != opts.Pipelining {
			t.Errorf("%s: Pipelining() = %v", want, s.Pipelining())
		}
	}
	if !DefaultOptions().Preemption || !DefaultOptions().Pipelining {
		t.Fatal("DefaultOptions must enable the full algorithm")
	}
}

func TestReallocateOneSlotEachOldestFirst(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := newFakeWorld(3)
	// Five candidates, more than slots: only the three oldest get a slot.
	for i := 0; i < 5; i++ {
		a := mkApp(t, int64(i+1), apps.LeNet, 2, 3, sim.Time(i))
		a.Candidate = true
		a.CandidateSince = sim.Time(i)
		w.apps = append(w.apps, a)
	}
	s.reallocate(w, sched.Candidates(w.apps))
	for i, a := range w.apps {
		want := 0
		if i < 3 {
			want = 1
		}
		if a.SlotsAllocated != want {
			t.Errorf("app %d allocated %d, want %d", i, a.SlotsAllocated, want)
		}
	}
}

func TestReallocateGoalNumbers(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := newFakeWorld(10)
	// Two candidates with plenty of slots: both reach their goal, and
	// leftover goes to the older one up to its max useful count.
	a := mkApp(t, 1, apps.OpticalFlow, 10, 3, 0) // 9-task chain, pipelines well
	b := mkApp(t, 2, apps.LeNet, 10, 3, 1)
	for _, x := range []*sched.App{a, b} {
		x.Candidate = true
		x.CandidateSince = x.Arrival
		w.apps = append(w.apps, x)
	}
	s.reallocate(w, sched.Candidates(w.apps))
	if a.SlotsAllocated < a.Goal || b.SlotsAllocated < b.Goal {
		t.Fatalf("allocations below goal: a=%d/%d b=%d/%d", a.SlotsAllocated, a.Goal, b.SlotsAllocated, b.Goal)
	}
	if a.Goal < 2 {
		t.Fatalf("OpticalFlow goal = %d, want >= 2", a.Goal)
	}
	total := a.SlotsAllocated + b.SlotsAllocated
	if total > 10 {
		t.Fatalf("over-allocated: %d slots", total)
	}
}

func TestReallocateNonCandidatesZeroed(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := newFakeWorld(4)
	a := mkApp(t, 1, apps.LeNet, 2, 9, 0)
	a.Candidate = true
	b := mkApp(t, 2, apps.LeNet, 2, 1, 0)
	b.Candidate = false
	b.SlotsAllocated = 3 // stale
	w.apps = []*sched.App{a, b}
	s.reallocate(w, sched.Candidates(w.apps))
	if b.SlotsAllocated != 0 {
		t.Fatalf("non-candidate kept allocation %d", b.SlotsAllocated)
	}
}

// Allocation invariants under arbitrary candidate mixes.
func TestReallocateInvariants(t *testing.T) {
	names := apps.Names()
	for seed := 0; seed < 25; seed++ {
		s := New(DefaultOptions(), board())
		w := newFakeWorld(10)
		n := seed%7 + 1
		for i := 0; i < n; i++ {
			a := mkApp(t, int64(i+1), names[(seed+i)%len(names)], (seed+i)%workloadMax+1, 3, sim.Time(i))
			a.Candidate = true
			a.CandidateSince = sim.Time(i)
			w.apps = append(w.apps, a)
		}
		cands := sched.Candidates(w.apps)
		s.reallocate(w, cands)
		total := 0
		for _, a := range w.apps {
			total += a.SlotsAllocated
		}
		if total > 10 {
			t.Fatalf("seed %d: allocated %d > 10 slots", seed, total)
		}
		// Every candidate gets at least one slot when candidates <= slots.
		if len(cands) <= 10 {
			for _, a := range cands {
				if a.SlotsAllocated < 1 {
					t.Fatalf("seed %d: candidate %d starved", seed, a.ID)
				}
			}
		}
	}
}

const workloadMax = 10

func TestSelectRespectsCAP(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := newFakeWorld(4)
	a := mkApp(t, 1, apps.LeNet, 2, 9, 0)
	w.apps = []*sched.App{a}
	w.capBusy = true
	s.Schedule(w, sched.ReasonTick)
	if len(w.reconfigs) != 0 {
		t.Fatalf("reconfigured %v while CAP busy", w.reconfigs)
	}
	w.capBusy = false
	s.Schedule(w, sched.ReasonTick)
	if len(w.reconfigs) != 1 {
		t.Fatalf("reconfigs = %v, want exactly one per opportunity", w.reconfigs)
	}
}

func TestSelectOldestCandidateFirst(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := newFakeWorld(4)
	young := mkApp(t, 1, apps.LeNet, 2, 9, 10)
	old := mkApp(t, 2, apps.LeNet, 2, 9, 0)
	w.apps = []*sched.App{old, young}
	s.Schedule(w, sched.ReasonTick)
	if len(w.reconfigs) != 1 || w.reconfigs[0] != "LeNet#2/t0@s0" {
		t.Fatalf("reconfigs = %v, want oldest app first", w.reconfigs)
	}
}

func TestSelectHonoursAllocation(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := newFakeWorld(2)
	a := mkApp(t, 1, apps.OpticalFlow, 10, 9, 0)
	b := mkApp(t, 2, apps.OpticalFlow, 10, 9, 1)
	w.apps = []*sched.App{a, b}
	// Run several scheduling rounds, activating configured tasks so the
	// next round can continue.
	for round := 0; round < 6; round++ {
		s.Schedule(w, sched.ReasonTick)
		for slot, o := range w.occupants {
			if o.app.TaskState(o.task) == sched.TaskConfiguring {
				o.app.MarkActive(o.task)
				_ = slot
			}
		}
	}
	if a.SlotsUsed() > a.SlotsAllocated || b.SlotsUsed() > b.SlotsAllocated {
		t.Fatalf("allocation exceeded: a=%d/%d b=%d/%d",
			a.SlotsUsed(), a.SlotsAllocated, b.SlotsUsed(), b.SlotsAllocated)
	}
}

func TestPreemptPicksMaxOverConsumer(t *testing.T) {
	w := newFakeWorld(4)
	// hog uses 3 slots, allocated 1 -> over-consumption 2.
	hog := mkApp(t, 1, apps.OpticalFlow, 10, 1, 0)
	w.occupy(t, 0, hog, 0)
	w.occupy(t, 1, hog, 1)
	w.occupy(t, 2, hog, 2)
	hog.SlotsAllocated = 1
	// mild uses 1 slot, allocated 0 -> over-consumption 1.
	mild := mkApp(t, 2, apps.LeNet, 5, 1, 0)
	w.occupy(t, 3, mild, 0)
	mild.SlotsAllocated = 0
	w.apps = []*sched.App{hog, mild}

	preempt(w)
	if len(w.preempts) != 1 {
		t.Fatalf("preempts = %v, want exactly one", w.preempts)
	}
	// Victim must be the hog's topologically latest running task (task 2
	// in slot 2), never a pipelined dependency.
	if w.preempts[0] != 2 {
		t.Fatalf("preempted slot %d, want 2 (latest topo task of max over-consumer)", w.preempts[0])
	}
}

func TestPreemptNoOverConsumer(t *testing.T) {
	w := newFakeWorld(2)
	a := mkApp(t, 1, apps.LeNet, 2, 3, 0)
	w.occupy(t, 0, a, 0)
	a.SlotsAllocated = 2
	w.apps = []*sched.App{a}
	preempt(w)
	if len(w.preempts) != 0 {
		t.Fatal("preempted without an over-consumer")
	}
}

func TestPreemptOnePendingAtATime(t *testing.T) {
	w := newFakeWorld(3)
	hog := mkApp(t, 1, apps.OpticalFlow, 10, 1, 0)
	w.occupy(t, 0, hog, 0)
	w.occupy(t, 1, hog, 1)
	hog.SlotsAllocated = 1
	w.apps = []*sched.App{hog}
	preempt(w)
	preempt(w)
	if len(w.preempts) != 1 {
		t.Fatalf("preempts = %v, want one while a request is pending", w.preempts)
	}
}

func TestNoPreemptOptionNeverPreempts(t *testing.T) {
	s := New(Options{Pipelining: true}, board())
	w := newFakeWorld(2)
	hog := mkApp(t, 1, apps.OpticalFlow, 10, 1, 0)
	w.occupy(t, 0, hog, 0)
	w.occupy(t, 1, hog, 1)
	hog.SlotsAllocated = 0
	hog.Candidate = true
	newcomer := mkApp(t, 2, apps.LeNet, 2, 9, 1)
	newcomer.Candidate = true
	w.apps = []*sched.App{hog, newcomer}
	s.Schedule(w, sched.ReasonTick)
	if len(w.preempts) != 0 {
		t.Fatalf("NoPreempt variant preempted: %v", w.preempts)
	}
}

func TestAnalysisFallbackSane(t *testing.T) {
	s := New(DefaultOptions(), board())
	a := mkApp(t, 1, apps.AlexNet, 5, 3, 0)
	slots := board().Slots
	an := s.plans.Plan(a, slots)
	if an.Goal < 1 || an.MaxUseful < an.Goal {
		t.Fatalf("analysis = %+v", an)
	}
	// Cached result is stable.
	an2 := s.plans.Plan(a, slots)
	if an != an2 {
		t.Fatal("analysis cache unstable")
	}
	// A degraded board caps the useful allocation at its usable size.
	if deg := s.plans.Plan(a, 2); deg.Goal > 2 || deg.MaxUseful > 2 {
		t.Fatalf("degraded analysis = %+v, want goal and max within 2 slots", deg)
	}
}

// Goal numbers and allocations must follow the usable board size as
// faults quarantine slots and repairs restore them: a scheduler whose
// apps carry plans memoized at another size must decide exactly like a
// freshly built scheduler planning from scratch at the current size.
func TestPlanMemoFollowsUsableSlots(t *testing.T) {
	type shape struct {
		name  string
		batch int
	}
	shapes := []shape{{apps.AlexNet, 5}, {apps.OpticalFlow, 10}, {apps.LeNet, 2}}
	policies := map[string]func() sched.Scheduler{
		"Nimblock":       func() sched.Scheduler { return New(DefaultOptions(), board()) },
		"NimblockEnergy": func() sched.Scheduler { return NewEnergy(board()) },
	}
	// world builds a 10-slot board with slots [usable, 10) offline and
	// the CAP busy, so Schedule only accrues tokens and reallocates.
	world := func(usable int) *fakeWorld {
		w := newFakeWorld(10)
		for s := usable; s < 10; s++ {
			w.offline[s] = true
		}
		w.capBusy = true
		for i, sh := range shapes {
			w.apps = append(w.apps, mkApp(t, int64(i+1), sh.name, sh.batch, 3, sim.Time(i)))
		}
		return w
	}
	for name, build := range policies {
		s, w := build(), world(10)
		var decisions [][]int // per step: goal and allocation of each app
		for _, usable := range []int{10, 6, 10} {
			clear(w.offline)
			for slot := usable; slot < 10; slot++ {
				w.offline[slot] = true
			}
			s.Schedule(w, sched.ReasonTick)
			fresh := world(usable)
			build().Schedule(fresh, sched.ReasonTick)
			var step []int
			for i, a := range w.apps {
				ref := fresh.apps[i]
				// Phase 2 assigns Goal only to apps it reaches before
				// the budget runs out; others keep their last goal.
				if a.SlotsAllocated != ref.SlotsAllocated || (ref.Goal > 0 && a.Goal != ref.Goal) {
					t.Fatalf("%s at %d usable slots: %s goal/alloc %d/%d, fresh scheduler %d/%d",
						name, usable, a.Name, a.Goal, a.SlotsAllocated, ref.Goal, ref.SlotsAllocated)
				}
				step = append(step, ref.Goal, a.SlotsAllocated)
			}
			decisions = append(decisions, step)
		}
		if slices.Equal(decisions[0], decisions[1]) {
			t.Fatalf("%s: decisions %v identical at 10 and 6 usable slots; the scenario does not exercise a re-plan", name, decisions[0])
		}
	}
}
