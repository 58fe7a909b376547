package nimblock

import (
	"time"

	"nimblock/internal/obs"
	"nimblock/internal/trace"
)

// TraceEvent is the public form of one hypervisor trace event, delivered
// to an Observer live as the simulation emits it. At is virtual time
// since system start. Task, Slot, and Item are -1 when the event does
// not concern one (an arrival names no slot). Kind uses the trace
// interchange vocabulary: "arrival", "reconfig-start", "reconfig-done",
// "item-start", "item-done", "task-done", "preempt-request", "preempt",
// "retire", plus the fault-injection kinds ("fault", "retry",
// "watchdog", "checkpoint", "quarantine", "slot-offline").
type TraceEvent struct {
	At    time.Duration
	Kind  string
	App   string
	AppID int64
	Task  int
	Slot  int
	Item  int
}

// Observer receives every trace event live; a System with
// Config.EnableTrace also keeps the same events, in the same order, in
// its log. Observe is called from the simulation loop: it must not
// block, and it must be safe for concurrent use when one observer is
// shared by several systems or by the boards of a Cluster or Platform.
// A nil observer costs one pointer test per event.
type Observer interface {
	Observe(e TraceEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(e TraceEvent)

// Observe implements Observer.
func (f ObserverFunc) Observe(e TraceEvent) { f(e) }

// obsAdapter bridges the internal sink interface to the public Observer.
type obsAdapter struct {
	o Observer
}

func (a obsAdapter) Observe(e trace.Event) {
	a.o.Observe(TraceEvent{
		At:    time.Duration(e.At) * time.Microsecond,
		Kind:  e.Kind.String(),
		App:   e.App,
		AppID: e.AppID,
		Task:  e.Task,
		Slot:  e.Slot,
		Item:  e.Item,
	})
}

// wrapObserver converts a public Observer into an internal sink; nil
// stays nil so the zero-cost disabled path is preserved.
func wrapObserver(o Observer) obs.Sink {
	if o == nil {
		return nil
	}
	return obsAdapter{o: o}
}
