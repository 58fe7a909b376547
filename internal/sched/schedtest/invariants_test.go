package schedtest

import (
	"strings"
	"testing"

	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

func ev(at sim.Duration, k trace.Kind, app int64, task, slot, item int) trace.Event {
	return trace.Event{At: sim.Time(at), Kind: k, App: "a", AppID: app, Task: task, Slot: slot, Item: item}
}

// A well-formed lifetime passes every check.
func TestCheckerAcceptsCleanRun(t *testing.T) {
	c := NewChecker()
	for _, e := range []trace.Event{
		ev(0, trace.KindArrival, 1, -1, -1, -1),
		ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
		ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
		ev(81*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
		ev(90*sim.Millisecond, trace.KindItemDone, 1, 0, 0, 0),
		ev(90*sim.Millisecond, trace.KindTaskDone, 1, 0, 0, -1),
		ev(91*sim.Millisecond, trace.KindRetire, 1, -1, -1, -1),
	} {
		c.Observe(e)
	}
	if err := c.Finish(1); err != nil {
		t.Fatal(err)
	}
	if c.Events() != 7 {
		t.Fatalf("saw %d events, want 7", c.Events())
	}
}

// Each corrupted sequence must be flagged with a violation mentioning
// the expected phrase — the checker is only useful if it really fires.
func TestCheckerCatchesViolations(t *testing.T) {
	cases := []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{
			"double-booked slot",
			[]trace.Event{
				ev(0, trace.KindArrival, 1, -1, -1, -1),
				ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
				ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
				ev(81*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
				ev(82*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 1),
			},
			"two items in flight",
		},
		{
			"item on unconfigured slot",
			[]trace.Event{
				ev(0, trace.KindArrival, 1, -1, -1, -1),
				ev(1*sim.Millisecond, trace.KindItemStart, 1, 0, 2, 0),
			},
			"unconfigured slot",
		},
		{
			"CAP overlap",
			[]trace.Event{
				ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
				ev(0, trace.KindReconfigStart, 2, 0, 1, -1),
				ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
				ev(90*sim.Millisecond, trace.KindReconfigDone, 2, 0, 1, -1),
			},
			"CAP not serialized",
		},
		{
			"mid-item preemption",
			[]trace.Event{
				ev(0, trace.KindArrival, 1, -1, -1, -1),
				ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
				ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
				ev(81*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
				ev(85*sim.Millisecond, trace.KindPreempt, 1, 0, 0, -1),
			},
			"mid-item",
		},
		{
			"retire before arrival",
			[]trace.Event{ev(0, trace.KindRetire, 7, -1, -1, -1)},
			"retire before arrival",
		},
		{
			"offline slot reused",
			[]trace.Event{
				ev(0, trace.KindSlotOffline, -1, -1, 3, -1),
				ev(1*sim.Millisecond, trace.KindReconfigStart, 1, 0, 3, -1),
			},
			"offline slot",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker()
			for _, e := range tc.events {
				c.Observe(e)
			}
			err := c.Err()
			if err == nil {
				t.Fatalf("checker accepted %s", tc.name)
			}
			joined := strings.Join(c.Violations(), "\n")
			if !strings.Contains(joined, tc.want) {
				t.Fatalf("violations %q do not mention %q", joined, tc.want)
			}
		})
	}
}

// Item conservation: a start without a finish or abort fails Finish; a
// watchdog abort followed by a re-execution passes.
func TestCheckerItemConservation(t *testing.T) {
	c := NewChecker()
	for _, e := range []trace.Event{
		ev(0, trace.KindArrival, 1, -1, -1, -1),
		ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
		ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
		ev(81*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
	} {
		c.Observe(e)
	}
	if err := c.Finish(0); err == nil {
		t.Fatal("unfinished item not flagged")
	}

	c = NewChecker()
	for _, e := range []trace.Event{
		ev(0, trace.KindArrival, 1, -1, -1, -1),
		ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
		ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
		ev(81*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
		ev(300*sim.Millisecond, trace.KindWatchdog, 1, 0, 0, 0),
		ev(301*sim.Millisecond, trace.KindReconfigStart, 1, 0, 1, -1),
		ev(381*sim.Millisecond, trace.KindReconfigDone, 1, 0, 1, -1),
		ev(382*sim.Millisecond, trace.KindItemStart, 1, 0, 1, 0),
		ev(390*sim.Millisecond, trace.KindItemDone, 1, 0, 1, 0),
		ev(390*sim.Millisecond, trace.KindTaskDone, 1, 0, 1, -1),
		ev(391*sim.Millisecond, trace.KindRetire, 1, -1, -1, -1),
	} {
		c.Observe(e)
	}
	if err := c.Finish(1); err != nil {
		t.Fatalf("watchdog re-execution flagged: %v", err)
	}
}

// Replay drives a recorded log through the same state machines.
func TestCheckerReplay(t *testing.T) {
	lg := trace.New()
	for _, e := range []trace.Event{
		ev(0, trace.KindArrival, 1, -1, -1, -1),
		ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
		ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
		ev(81*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
		ev(90*sim.Millisecond, trace.KindItemDone, 1, 0, 0, 0),
		ev(90*sim.Millisecond, trace.KindTaskDone, 1, 0, 0, -1),
		ev(91*sim.Millisecond, trace.KindRetire, 1, -1, -1, -1),
	} {
		lg.Observe(e)
	}
	c := NewChecker()
	lg.Replay(c)
	if c.Events() != lg.Len() {
		t.Fatalf("replayed %d of %d events", c.Events(), lg.Len())
	}
	if err := c.Finish(1); err != nil {
		t.Fatal(err)
	}
}

// The remaining per-kind state machines: each corrupted stream must fire,
// and the matching well-formed stream must not.
func TestCheckerRecoveryAndFaultKinds(t *testing.T) {
	// Reconfiguration prologue shared by most cases.
	pro := []trace.Event{
		ev(0, trace.KindArrival, 1, -1, -1, -1),
		ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
	}
	loaded := append(append([]trace.Event{}, pro...),
		ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1))
	inflight := append(append([]trace.Event{}, loaded...),
		ev(81*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0))

	bad := []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"done without start", []trace.Event{ev(0, trace.KindReconfigDone, 1, 0, 0, -1)}, "without start"},
		{"retry while idle", []trace.Event{ev(0, trace.KindRetry, 1, 0, 0, -1)}, "not reconfiguring"},
		{"fault while idle", []trace.Event{ev(0, trace.KindFault, 1, 0, 0, -1)}, "not reconfiguring"},
		{"item start before arrival", append(
			[]trace.Event{
				ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
				ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
			},
			ev(81*sim.Millisecond, trace.KindItemStart, 9, 0, 0, 0)), "before arrival"},
		{"item done without start", append(append([]trace.Event{}, loaded...),
			ev(81*sim.Millisecond, trace.KindItemDone, 1, 0, 0, 0)), "without start"},
		{"item done mismatch", append(append([]trace.Event{}, inflight...),
			ev(90*sim.Millisecond, trace.KindItemDone, 1, 0, 0, 5)), "does not match open item"},
		{"task done mid-item", append(append([]trace.Event{}, inflight...),
			ev(90*sim.Millisecond, trace.KindTaskDone, 1, 0, 0, -1)), "item in flight"},
		{"preempt request on empty slot", []trace.Event{ev(0, trace.KindPreemptRequest, 1, 0, 4, -1)}, "empty slot"},
		{"preempt unloaded slot", []trace.Event{ev(0, trace.KindPreempt, 1, 0, 4, -1)}, "unloaded"},
		{"checkpoint with no item", append(append([]trace.Event{}, loaded...),
			ev(90*sim.Millisecond, trace.KindCheckpoint, 1, 0, 0, -1)), "no item in flight"},
		{"watchdog with no item", append(append([]trace.Event{}, loaded...),
			ev(90*sim.Millisecond, trace.KindWatchdog, 1, 0, 0, -1)), "no item in flight"},
		{"quarantine mid-item", append(append([]trace.Event{}, inflight...),
			ev(90*sim.Millisecond, trace.KindQuarantine, 1, 0, 0, -1)), "item in flight"},
		{"item start on offline slot", []trace.Event{
			ev(0, trace.KindArrival, 1, -1, -1, -1),
			ev(0, trace.KindSlotOffline, -1, -1, 0, -1),
			ev(1*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
		}, "offline slot"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker()
			for _, e := range tc.events {
				c.Observe(e)
			}
			if err := c.Err(); err == nil {
				t.Fatalf("checker accepted %s", tc.name)
			} else if got := strings.Join(c.Violations(), "\n"); !strings.Contains(got, tc.want) {
				t.Fatalf("violations %q do not mention %q", got, tc.want)
			}
		})
	}

	// Well-formed recovery: a transient fault retries, a checkpoint aborts
	// the open item mid-flight, a preempt-request lands on a loaded slot,
	// an offline slot kills its occupant silently. None violate.
	c := NewChecker()
	for _, e := range []trace.Event{
		ev(0, trace.KindArrival, 1, -1, -1, -1),
		ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
		ev(10*sim.Millisecond, trace.KindFault, 1, 0, 0, -1),
		ev(10*sim.Millisecond, trace.KindReconfigStart, 1, 0, 0, -1),
		ev(11*sim.Millisecond, trace.KindRetry, 1, 0, 0, -1),
		ev(90*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
		ev(91*sim.Millisecond, trace.KindPreemptRequest, 1, 0, 0, -1),
		ev(92*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
		ev(99*sim.Millisecond, trace.KindCheckpoint, 1, 0, 0, 0),
		ev(200*sim.Millisecond, trace.KindReconfigStart, 1, 0, 1, -1),
		ev(280*sim.Millisecond, trace.KindReconfigDone, 1, 0, 1, -1),
		ev(281*sim.Millisecond, trace.KindItemStart, 1, 0, 1, 0),
		ev(282*sim.Millisecond, trace.KindSlotOffline, -1, -1, 1, -1),
		ev(283*sim.Millisecond, trace.KindQuarantine, -1, -1, 1, -1),
		ev(400*sim.Millisecond, trace.KindReconfigStart, 1, 0, 2, -1),
		ev(480*sim.Millisecond, trace.KindReconfigDone, 1, 0, 2, -1),
		ev(481*sim.Millisecond, trace.KindItemStart, 1, 0, 2, 0),
		ev(490*sim.Millisecond, trace.KindItemDone, 1, 0, 2, 0),
		ev(490*sim.Millisecond, trace.KindTaskDone, 1, 0, 2, -1),
		ev(491*sim.Millisecond, trace.KindRetire, 1, -1, -1, -1),
	} {
		c.Observe(e)
	}
	if err := c.Finish(1); err != nil {
		t.Fatalf("clean recovery stream flagged: %v", err)
	}
}

// End-of-run bookkeeping violations.
func TestCheckerFinishViolations(t *testing.T) {
	// Double finish of the same (app, task, item).
	c := NewChecker()
	for _, e := range []trace.Event{
		ev(0, trace.KindArrival, 1, -1, -1, -1),
		ev(0, trace.KindReconfigStart, 1, 0, 0, -1),
		ev(80*sim.Millisecond, trace.KindReconfigDone, 1, 0, 0, -1),
		ev(81*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
		ev(90*sim.Millisecond, trace.KindItemDone, 1, 0, 0, 0),
		ev(91*sim.Millisecond, trace.KindItemStart, 1, 0, 0, 0),
		ev(99*sim.Millisecond, trace.KindItemDone, 1, 0, 0, 0),
		ev(99*sim.Millisecond, trace.KindTaskDone, 1, 0, 0, -1),
		ev(100*sim.Millisecond, trace.KindRetire, 1, -1, -1, -1),
	} {
		c.Observe(e)
	}
	err := c.Finish(1)
	if err == nil || !strings.Contains(err.Error(), "finished 2 times") {
		t.Fatalf("double finish not flagged: %v", err)
	}

	// Result-count mismatch.
	c = NewChecker()
	c.Observe(ev(0, trace.KindArrival, 1, -1, -1, -1))
	if err := c.Finish(5); err == nil {
		t.Fatal("arrival/result mismatch not flagged")
	}
}
