package rr

import (
	"strings"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
)

func TestIdentity(t *testing.T) {
	s := New()
	if s.Name() != "RR" || s.Pipelining() {
		t.Fatalf("identity: name=%q pipelining=%v", s.Name(), s.Pipelining())
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	s := New()
	w := schedtest.NewWorld(3)
	a := schedtest.NewApp(t, 1, apps.MustGraph(apps.ImageCompression), 2, 3, 0)
	w.AppList = []*sched.App{a}
	s.Schedule(w, sched.ReasonArrival)
	// The chain prefix spreads across distinct slots (shortest queue
	// first), so three different slots are configured.
	if len(w.Reconfigs) != 3 {
		t.Fatalf("reconfigs = %v", w.Reconfigs)
	}
	used := map[string]bool{}
	for _, rc := range w.Reconfigs {
		used[rc[strings.Index(rc, "@"):]] = true
	}
	if len(used) != 3 {
		t.Fatalf("tasks not distributed round-robin: %v", w.Reconfigs)
	}
}

func TestPriorityOrderWithinQueue(t *testing.T) {
	s := New()
	// Single slot: everything lands in the same queue; priority decides.
	w := schedtest.NewWorld(1)
	lo := schedtest.NewApp(t, 1, apps.MustGraph(apps.LeNet), 1, 1, 0)
	hi := schedtest.NewApp(t, 2, apps.MustGraph(apps.LeNet), 1, 9, 1)
	w.AppList = []*sched.App{lo, hi}
	s.Schedule(w, sched.ReasonArrival)
	if len(w.Reconfigs) != 1 {
		t.Fatalf("reconfigs = %v", w.Reconfigs)
	}
	// The slot was free at issue time, so the first issued task (lo.t0)
	// dispatched immediately; the queue now orders hi ahead of lo's
	// remaining tasks. Free the slot and re-schedule.
	w.FinishTask(t, 0)
	s.Schedule(w, sched.ReasonSlotFree)
	if len(w.Reconfigs) != 2 || !strings.HasPrefix(w.Reconfigs[1], "LeNet#2") {
		t.Fatalf("reconfigs = %v, want high-priority task next", w.Reconfigs)
	}
}

func TestStaleEntriesSkipped(t *testing.T) {
	s := New()
	w := schedtest.NewWorld(2)
	a := schedtest.NewApp(t, 1, apps.MustGraph(apps.LeNet), 1, 3, 0)
	w.AppList = []*sched.App{a}
	// Drive the whole app to completion through the scheduler.
	for round := 0; round < 10 && !a.Done(); round++ {
		s.Schedule(w, sched.ReasonTick)
		for slot := 0; slot < 2; slot++ {
			if _, ok := w.Occupants[slot]; ok {
				w.FinishTask(t, slot)
			}
		}
	}
	if !a.Done() {
		t.Fatal("app never finished under RR")
	}
	a.Retire()
	w.AppList = nil
	// Any queue entries left behind are stale: scheduling must not
	// reconfigure anything.
	n := len(w.Reconfigs)
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != n {
		t.Fatalf("stale entries dispatched: %v", w.Reconfigs[n:])
	}
}

func TestTasksIssuedOnce(t *testing.T) {
	s := New()
	w := schedtest.NewWorld(1)
	a := schedtest.NewApp(t, 1, apps.MustGraph(apps.Rendering3D), 1, 3, 0)
	w.AppList = []*sched.App{a}
	s.Schedule(w, sched.ReasonArrival)
	s.Schedule(w, sched.ReasonTick)
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != 1 {
		t.Fatalf("reconfigs = %v; a queued task was re-issued", w.Reconfigs)
	}
}

// Regression: the issue flags once outlived their apps, so a
// long-lived board grew them once per submission. After each of 1,000
// sequential apps retires on one RR board, and after every policy call,
// the policy keeps flags and queue entries only for pending apps.
func TestStateBoundedToPendingApps(t *testing.T) {
	const total = 1000
	s := New()
	eng := sim.NewEngine()
	g := apps.MustGraph(apps.LeNet)
	var h *hv.Hypervisor
	retired := 0
	check := func(when string) {
		pending := map[*sched.App]bool{}
		for _, a := range h.Apps() {
			pending[a] = true
		}
		for a := range s.issued {
			if !pending[a] {
				t.Fatalf("%s, after %d retirements: issue flags kept for %s, which is not pending", when, retired, a)
			}
		}
		for _, q := range s.queues {
			for _, e := range q {
				if !pending[e.app] {
					t.Fatalf("%s, after %d retirements: queue entry kept for %s, which is not pending", when, retired, e.app)
				}
			}
		}
	}
	cfg := hv.DefaultConfig()
	cfg.OnRetire = func(int64) {
		retired++
		if retired < total {
			if err := h.Submit(g, 2, 3, eng.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	h, err := hv.New(eng, cfg, checked{s, func() { check("after a call") }})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(g, 2, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if retired != total {
		t.Fatalf("%d of %d apps retired", retired, total)
	}
	check("at the end")
	if n := len(s.issued); n != 0 {
		t.Fatalf("issue flags kept for %d apps after every app retired", n)
	}
}

// checked runs a check after every Schedule call of the policy it wraps.
type checked struct {
	*Scheduler
	after func()
}

func (c checked) Schedule(w sched.World, why sched.Reason) {
	c.Scheduler.Schedule(w, why)
	c.after()
}
