package trace

import (
	"strings"
	"testing"

	"nimblock/internal/sim"
)

func sampleLog() *Log {
	l := New()
	sec := sim.Time(sim.Second)
	add := func(at sim.Time, k Kind, id int64, task, slot, item int) {
		l.Observe(Event{At: at, Kind: k, App: "app", AppID: id, Task: task, Slot: slot, Item: item})
	}
	add(0, KindArrival, 1, -1, -1, -1)
	add(0, KindReconfigStart, 1, 0, 2, -1)
	add(sec, KindReconfigDone, 1, 0, 2, -1)
	add(sec, KindItemStart, 1, 0, 2, 0)
	add(3*sec, KindItemDone, 1, 0, 2, 0)
	add(3*sec, KindPreempt, 1, 0, 2, -1)
	add(4*sec, KindReconfigStart, 1, 0, 5, -1)
	add(5*sec, KindReconfigDone, 1, 0, 5, -1)
	add(5*sec, KindItemStart, 1, 0, 5, 1)
	add(6*sec, KindItemDone, 1, 0, 5, 1)
	add(6*sec, KindRetire, 1, -1, -1, -1)
	return l
}

func TestSummarize(t *testing.T) {
	s := sampleLog().Summarize()
	if len(s) != 1 {
		t.Fatalf("summaries = %d", len(s))
	}
	a := s[0]
	if a.Items != 2 {
		t.Errorf("items = %d", a.Items)
	}
	if a.ComputeTime != 3*sim.Second {
		t.Errorf("compute = %v", a.ComputeTime)
	}
	if a.Reconfigs != 2 || a.Preemptions != 1 || a.SlotsTouched != 2 {
		t.Errorf("aggregates = %+v", a)
	}
	if a.Response() != 6*sim.Second {
		t.Errorf("response = %v", a.Response())
	}
}

func TestSummaryTable(t *testing.T) {
	out := sampleLog().SummaryTable()
	for _, want := range []string{"app#1", "6.00s", "3.00s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeOrdersByID(t *testing.T) {
	l := New()
	l.Observe(Event{Kind: KindArrival, App: "b", AppID: 2, Task: -1, Slot: -1, Item: -1})
	l.Observe(Event{Kind: KindArrival, App: "a", AppID: 1, Task: -1, Slot: -1, Item: -1})
	s := l.Summarize()
	if len(s) != 2 || s[0].AppID != 1 || s[1].AppID != 2 {
		t.Fatalf("order = %+v", s)
	}
}

func TestSummarizeEmptyAndNil(t *testing.T) {
	if got := New().Summarize(); len(got) != 0 {
		t.Fatal("empty log produced summaries")
	}
	var l *Log
	if got := l.Summarize(); got != nil {
		t.Fatal("nil log produced summaries")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := sampleLog()
	data, err := l.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("round trip lost events: %d vs %d", back.Len(), l.Len())
	}
	for i, e := range l.Events() {
		if back.Events()[i] != e {
			t.Fatalf("event %d changed: %v vs %v", i, back.Events()[i], e)
		}
	}
	// Summaries agree after round trip.
	a, b := l.Summarize(), back.Summarize()
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatalf("summaries diverged: %+v vs %+v", a, b)
	}
}

func TestParseJSONErrors(t *testing.T) {
	if _, err := ParseJSON([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseJSON([]byte(`[{"kind":"nope"}]`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
