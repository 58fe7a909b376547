// Package obs is the live observability layer: streaming sinks, span
// building, online metrics, and Prometheus-text exposition over the
// hypervisor's trace events.
//
// The hypervisor has one emission target, hv.Config.Observer, and every
// view of a run is a sink on it: a recorded trace.Log is one sink among
// the metrics, span and JSONL sinks here, teed alongside them, and a
// recorded log replays into any sink afterwards (trace.Log.Replay). The
// live sinks fold events as they happen. That turns a long-running
// simulation, a cluster sweep, or a serverless replay into something that
// can be watched while it runs — the same lens multi-tenant FPGA runtimes
// use to monitor per-tenant fairness and slot occupancy in production.
//
// Design rules:
//
//   - A nil Sink is "observability off" and must cost nothing on the
//     simulator hot path: the hypervisor guards emission with a single
//     nil check and passes events by value (zero allocations; a benchmark
//     in internal/hv enforces this).
//   - A sink shared across boards must be safe for concurrent use: the
//     parallel experiment harness (internal/experiments) and the sharded
//     fleet advance many engines at once. Every Sink shipped by this
//     package is. A trace.Log is not: it records exactly one board and
//     takes no lock, and the race-enabled test run catches any sharing.
//   - Sinks never block the simulation.
package obs

import (
	"sync"

	"nimblock/internal/trace"
)

// Sink receives trace events as they are emitted. A sink attached to
// more than one board must be safe for concurrent Observe calls: the
// parallel experiment harness attaches one sink to many simulator
// goroutines. A sink attached to one board (a trace.Log) needs no lock.
type Sink interface {
	Observe(e trace.Event)
}

// Closer is implemented by sinks that hold resources (background
// goroutines, buffered writers). Close flushes and releases them; the
// sink must not be Observed after Close.
type Closer interface {
	Close() error
}

// Close closes s if it implements Closer; otherwise it is a no-op.
func Close(s Sink) error {
	if c, ok := s.(Closer); ok {
		return c.Close()
	}
	return nil
}

// Func adapts a function to the Sink interface. The function must be
// safe for concurrent calls.
type Func func(e trace.Event)

// Observe implements Sink.
func (f Func) Observe(e trace.Event) { f(e) }

// tee fans every event out to several sinks in order.
type tee []Sink

// Tee returns a sink that forwards each event to every given sink in
// order. Nil entries are skipped; a tee of zero or one sinks collapses
// to nothing or the sink itself.
func Tee(sinks ...Sink) Sink {
	var live tee
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

// Observe implements Sink.
func (t tee) Observe(e trace.Event) {
	for _, s := range t {
		s.Observe(e)
	}
}

// Counting is a minimal sink that tallies events by kind — useful as a
// cheap liveness probe and in tests.
type Counting struct {
	mu     sync.Mutex
	total  int64
	byKind []int64
}

// Observe implements Sink.
func (c *Counting) Observe(e trace.Event) {
	c.mu.Lock()
	if c.byKind == nil {
		c.byKind = make([]int64, trace.NumKinds())
	}
	c.total++
	if k := int(e.Kind); k >= 0 && k < len(c.byKind) {
		c.byKind[k]++
	}
	c.mu.Unlock()
}

// Total reports the number of events observed.
func (c *Counting) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Count reports the number of events of one kind observed.
func (c *Counting) Count(k trace.Kind) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(k) < 0 || int(k) >= len(c.byKind) {
		return 0
	}
	return c.byKind[k]
}
