package trace

import (
	"strings"
	"testing"

	"nimblock/internal/sim"
)

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Observe(Event{})
	if l.Len() != 0 || l.Events() != nil || l.Count(KindArrival) != 0 {
		t.Fatal("nil log misbehaved")
	}
}

func TestAddAndCount(t *testing.T) {
	l := New()
	l.Observe(Event{At: 1, Kind: KindArrival, App: "a", Task: -1, Slot: -1, Item: -1})
	l.Observe(Event{At: 2, Kind: KindItemDone, App: "a", Task: 0, Slot: 1, Item: 0})
	l.Observe(Event{At: 3, Kind: KindItemDone, App: "a", Task: 0, Slot: 1, Item: 1})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Count(KindItemDone) != 2 {
		t.Fatalf("Count = %d", l.Count(KindItemDone))
	}
	got := l.Filter(func(e Event) bool { return e.Kind == KindArrival })
	if len(got) != 1 || got[0].App != "a" {
		t.Fatalf("Filter = %v", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: sim.Time(1_500_000), Kind: KindItemStart, App: "LeNet", AppID: 4, Task: 2, Slot: 7, Item: 3}
	s := e.String()
	for _, want := range []string{"1.500", "item-start", "LeNet#4", "task=2", "slot=7", "item=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
	// Fields that do not apply are suppressed.
	s2 := Event{Kind: KindArrival, App: "x", Task: -1, Slot: -1, Item: -1}.String()
	if strings.Contains(s2, "task=") || strings.Contains(s2, "slot=") ||
		strings.Contains(s2, "dur=") || strings.Contains(s2, "progress=") {
		t.Fatalf("suppressed fields leaked: %q", s2)
	}
	// Checkpoint events render transfer time and captured progress.
	s3 := Event{Kind: KindRestore, App: "x", Task: 0, Slot: 1, Item: 2,
		Dur: 5 * sim.Millisecond, Progress: 40 * sim.Millisecond}.String()
	if !strings.Contains(s3, "dur=") || !strings.Contains(s3, "progress=") {
		t.Fatalf("checkpoint fields missing: %q", s3)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindArrival, KindReconfigStart, KindReconfigDone, KindItemStart,
		KindItemDone, KindTaskDone, KindPreemptRequest, KindPreempt, KindCheckpoint, KindRetire, KindFault,
		KindRetry, KindWatchdog, KindQuarantine, KindSlotOffline,
		KindCheckpointSave, KindRestore, KindCheckpointFault, Kind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate string %q", int(k), s)
		}
		seen[s] = true
	}
}

func TestGantt(t *testing.T) {
	l := New()
	sec := sim.Time(sim.Second)
	l.Observe(Event{At: 0, Kind: KindReconfigStart, App: "a", Slot: 0, Task: 0, Item: -1})
	l.Observe(Event{At: sec, Kind: KindReconfigDone, App: "a", Slot: 0, Task: 0, Item: -1})
	l.Observe(Event{At: sec, Kind: KindItemStart, App: "a", Slot: 0, Task: 0, Item: 0})
	l.Observe(Event{At: 3 * sec, Kind: KindItemDone, App: "a", Slot: 0, Task: 0, Item: 0})
	g := l.Gantt(2, 4*sec, 8)
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), g)
	}
	if !strings.Contains(lines[1], "RR####..") {
		t.Fatalf("slot 0 row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "........") {
		t.Fatalf("slot 1 row = %q", lines[2])
	}
}

func TestGanttDegenerate(t *testing.T) {
	l := New()
	if g := l.Gantt(1, sim.Time(sim.Second), 10); g != "" {
		t.Fatalf("empty log produced gantt %q", g)
	}
	l.Observe(Event{At: 0, Kind: KindItemStart, Slot: 0})
	if g := l.Gantt(1, 0, 10); g != "" {
		t.Fatal("zero end produced gantt")
	}
	if g := l.Gantt(1, sim.Time(sim.Second), 0); g != "" {
		t.Fatal("zero cols produced gantt")
	}
}

func TestDump(t *testing.T) {
	l := New()
	l.Observe(Event{At: 1, Kind: KindArrival, App: "a", Task: -1, Slot: -1, Item: -1})
	l.Observe(Event{At: 2, Kind: KindRetire, App: "a", Task: -1, Slot: -1, Item: -1})
	d := l.Dump()
	if strings.Count(d, "\n") != 2 {
		t.Fatalf("dump = %q", d)
	}
}
