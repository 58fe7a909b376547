package hv_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/fpga"
	"nimblock/internal/hv"
	"nimblock/internal/obs"
	"nimblock/internal/sched"
	"nimblock/internal/sched/baseline"
	"nimblock/internal/sched/ckpt"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sched/prema"
	"nimblock/internal/sched/rr"
	"nimblock/internal/sim"
)

// skipPolicy builds one of the seven policies that declare a wake.
type skipPolicy struct {
	name string
	mk   func(fpga.Config) sched.Scheduler
}

var skipPolicies = []skipPolicy{
	{"Baseline", func(fpga.Config) sched.Scheduler { return baseline.New() }},
	{"FCFS", func(fpga.Config) sched.Scheduler { return fcfs.New() }},
	{"PREMA", func(fpga.Config) sched.Scheduler { return prema.New() }},
	{"RR", func(fpga.Config) sched.Scheduler { return rr.New() }},
	{"Nimblock", func(b fpga.Config) sched.Scheduler { return core.New(core.DefaultOptions(), b) }},
	{"NimblockCheckpoint", func(b fpga.Config) sched.Scheduler { return ckpt.New(core.DefaultOptions(), b) }},
	{"NimblockEnergy", func(b fpga.Config) sched.Scheduler { return core.NewEnergy(b) }},
}

// everyTick is the reference for tick skipping. It hides the policy's
// sched.Waker, so the hypervisor calls it at every tick, and it checks
// the skipping rule strictly: at every tick the hypervisor would have
// skipped (no World-visible change since the last call returned, and
// the tick before the wake the policy declared then) it calls the
// policy against a world that records actions instead of applying
// them, and fails the test if the policy reconfigures, requests a
// preemption, or flips an application's candidacy. A policy that
// passes has done exactly nothing at that tick, so the reference run
// is the plain every-tick run.
type everyTick struct {
	sched.Scheduler
	t     *testing.T
	waker sched.Waker
	quiet uint64   // the board's change count when the last call returned
	wake  sim.Time // the wake the policy declared then
	// checked counts the ticks the strict check covered.
	checked *int
}

func newEveryTick(t *testing.T, p sched.Scheduler, checked *int) *everyTick {
	w, ok := p.(sched.Waker)
	if !ok {
		t.Fatalf("%s declares no wake", p.Name())
	}
	return &everyTick{Scheduler: p, t: t, waker: w, checked: checked}
}

func (p *everyTick) Schedule(w sched.World, why sched.Reason) {
	h := w.(*hv.Hypervisor)
	if why == sched.ReasonTick && h.Changes() == p.quiet && h.Now() < p.wake {
		*p.checked++
		rec := &recordingWorld{World: w}
		was := candidacy(w.Apps())
		p.Scheduler.Schedule(rec, why)
		if len(rec.acts) > 0 {
			p.t.Errorf("%s acted at %v, before its wake %v: %v", p.Name(), h.Now(), p.wake, rec.acts)
		}
		if now := candidacy(w.Apps()); !slices.Equal(was, now) {
			p.t.Errorf("%s flipped candidacy at %v, before its wake %v: %v -> %v", p.Name(), h.Now(), p.wake, was, now)
		}
		return
	}
	p.Scheduler.Schedule(w, why)
	p.quiet, p.wake = h.Changes(), p.waker.NextWake(w)
}

// recordingWorld records the actions a policy takes instead of applying
// them; everything else reads through to the board.
type recordingWorld struct {
	sched.World
	acts []string
}

func (r *recordingWorld) Reconfigure(slot int, a *sched.App, task int) error {
	r.acts = append(r.acts, fmt.Sprintf("reconfigure slot %d with %s task %d", slot, a, task))
	return nil
}

func (r *recordingWorld) RequestPreempt(slot int) error {
	r.acts = append(r.acts, fmt.Sprintf("preempt slot %d", slot))
	return nil
}

func candidacy(apps []*sched.App) []bool {
	out := make([]bool, len(apps))
	for i, a := range apps {
		out[i] = a.Candidate
	}
	return out
}

// TestTickSkipMatchesEveryTick is the differential oracle for tick
// skipping: over the lifecycle matrix (20 seeds x 3 checkpoint modes,
// every fault kind, degrade, abort, freeze and evacuation) and each of
// the seven policies, a run that skips ticks and the strict every-tick
// reference produce byte-identical JSONL traces, results, recovery and
// energy reports on both boards.
func TestTickSkipMatchesEveryTick(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 4
	}
	for _, p := range skipPolicies {
		t.Run(p.name, func(t *testing.T) {
			checked := 0
			for seed := int64(1); seed <= seeds; seed++ {
				for mode := 0; mode < numModes; mode++ {
					c := goldenLifecycleCase(seed, mode)
					c.policy = p.name
					skip := runLifecycle(t, c)
					c.everyTick = &checked
					ref := runLifecycle(t, c)
					if skip != ref {
						t.Fatalf("seed %d mode %s: tick skipping changed the outcome:\n skipping   %+v\n every tick %+v",
							seed, modeNames[mode], skip, ref)
					}
				}
			}
			// Fault-heavy runs still idle between events; a strict
			// check that never fires would prove nothing.
			if checked == 0 {
				t.Fatal("the strict check covered no tick")
			}
			t.Logf("strict check covered %d ticks", checked)
		})
	}
}

// runSkipCase runs the submissions on a board under the policy and
// returns a digest of its JSONL trace, results, recovery and energy
// reports. A non-nil ticks runs it under the every-tick reference, a
// non-nil saves under the strict periodic-save reference; each counts
// the calls its strict check covered.
func runSkipCase(t *testing.T, cfg hv.Config, mk func(fpga.Config) sched.Scheduler, subs []submission, ticks, saves *int) string {
	t.Helper()
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	cfg.Observer = jsonl
	pol := mk(cfg.Board)
	if ticks != nil {
		pol = newEveryTick(t, pol, ticks)
	}
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if saves != nil {
		h.StrictSaves(saves)
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
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x\n%+v\n%+v\n%+v", sha256.Sum256(buf.Bytes()), res, h.Recovery(), h.Energy())
}

// TestTickSkipKeepsSLORescueTick pins NimblockCheckpoint's second clock
// read. Core preemption is off, so only the SLO rescue can free a slot.
// A priority-9 arrival waits behind DigitRecognition items that run for
// a minute each, with no event due until they finish, so only a tick
// can notice it turn urgent (start now, still miss the deadline) and
// rescue it with a mid-item checkpoint preemption. The declared wake
// must include that crossing, or the skipping board rescues it a
// minute late.
func TestTickSkipKeepsSLORescueTick(t *testing.T) {
	cfg := checkpointConfig(10 * sim.Millisecond)
	cfg.EnableTrace = false
	cfg.Board.Slots = 2
	subs := []submission{
		{apps.DigitRecognition, 2, 1, 0},
		{apps.LeNet, 2, 9, 5 * sim.Time(sim.Second)},
	}
	mk := func(b fpga.Config) sched.Scheduler {
		return ckpt.New(core.Options{Pipelining: true}, b)
	}
	checked := 0
	skip := runSkipCase(t, cfg, mk, subs, nil, nil)
	ref := runSkipCase(t, cfg, mk, subs, &checked, nil)
	if skip != ref {
		t.Fatalf("tick skipping changed the run:\n skipping   %s\n every tick %s", skip, ref)
	}
	if checked == 0 {
		t.Fatal("the strict check covered no tick")
	}
}
