package hv_test

import (
	"regexp"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/fpga"
	"nimblock/internal/sched"
	"nimblock/internal/sched/ckpt"
	"nimblock/internal/sim"
)

// TestSaveSkipMatchesStrict is the differential oracle for periodic-save
// skipping. Over 20 lifecycle seeds with 50 ms periodic saves (every
// fault kind, degrade, abort, freeze and evacuation, and migration of
// the evacuees' snapshots onto a second board), under core Nimblock and
// under NimblockCheckpoint, whose SLO rescue adds on-demand captures, a
// board that skips the saves before each stretch's fresh bound and the
// strict reference produce byte-identical JSONL traces, results,
// recovery and energy reports on both boards. The reference checks every
// save exactly and fails the run if one before the bound finds a new
// preemption point, so the bound is sound, not just harmless.
func TestSaveSkipMatchesStrict(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 4
	}
	for _, policy := range []string{"Nimblock", "NimblockCheckpoint"} {
		t.Run(policy, func(t *testing.T) {
			checked := 0
			for seed := int64(1); seed <= seeds; seed++ {
				c := goldenLifecycleCase(seed, modePeriodic)
				c.policy = policy
				skip := runLifecycle(t, c)
				c.strictSaves = &checked
				ref := runLifecycle(t, c)
				if skip != ref {
					t.Fatalf("seed %d: save skipping changed the outcome:\n skipping %+v\n strict   %+v", seed, skip, ref)
				}
			}
			// Most saves find no new point; a strict check that never
			// ran would prove nothing.
			if checked == 0 {
				t.Fatal("the strict check covered no save")
			}
			t.Logf("strict check covered %d saves", checked)
		})
	}
}

// TestSaveSkipKeepsOnDemandCaptures runs the SLO-rescue scenario of
// TestTickSkipKeepsSLORescueTick with 50 ms periodic saves: the rescue
// preempts a minute-long DigitRecognition item mid-stretch, and its
// on-demand capture never skips, so the run must match the strict
// reference exactly.
func TestSaveSkipKeepsOnDemandCaptures(t *testing.T) {
	cfg := checkpointConfig(10 * sim.Millisecond)
	cfg.Checkpoint.Period = 50 * sim.Millisecond
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
	ref := runSkipCase(t, cfg, mk, subs, nil, &checked)
	if skip != ref {
		t.Fatalf("save skipping changed the run:\n skipping %s\n strict   %s", skip, ref)
	}
	if !regexp.MustCompile(`Preemptions:[1-9]`).MatchString(skip) {
		t.Fatalf("no rescue preempted a running item: %s", skip)
	}
	if checked == 0 {
		t.Fatal("the strict check covered no save")
	}
}

// TestSaveSkipWithOnDemandCaptures combines skipped periodic saves with
// on-demand captures in the same runs. The lifecycle pool's items are
// short, so NimblockCheckpoint's SLO rescue rarely captures a running
// item there; with minute-long DigitRecognition items in the pool it
// does. Over 20 seeds with the golden fault mix and board operations,
// with and without the freeze and evacuation, the skipping board must
// match the strict periodic-save reference exactly, and the reference,
// driven one event at a time, keeps its buffer counters equal to a scan
// of the records and ends with no buffer held (runLifecycle).
func TestSaveSkipWithOnDemandCaptures(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 6
	}
	combined, captures := 0, int64(0)
	for _, freeze := range []bool{true, false} {
		for seed := int64(1); seed <= seeds; seed++ {
			c := goldenLifecycleCase(seed, modePeriodic)
			c.policy = "NimblockCheckpoint"
			c.pool = []string{"LeNet", "OpticalFlow", "DigitRecognition"}
			if !freeze {
				c.freezeAt = 0
			}
			skip := runLifecycle(t, c)
			checked, steps := 0, 0
			c.strictSaves, c.ledgerSteps = &checked, &steps
			ref := runLifecycle(t, c)
			if skip != ref {
				t.Fatalf("seed %d freeze %v: save skipping changed the outcome:\n skipping %+v\n strict   %+v", seed, freeze, skip, ref)
			}
			checkLifecycleConservation(t, ref)
			captures += ref.captures
			if ref.captures > 0 && checked > 0 {
				combined++
			}
		}
	}
	// Most runs must both skip saves and capture on demand, or the
	// comparison says nothing about the combination.
	if combined < int(seeds) {
		t.Fatalf("only %d of %d runs both skipped a save and captured on demand", combined, 2*seeds)
	}
	t.Logf("%d of %d runs combined skipped saves with %d on-demand captures", combined, 2*seeds, captures)
}
