// Package trace records typed execution events from the hypervisor and
// renders them for humans (event listings and per-slot Gantt charts).
// Traces power the examples and let tests assert scheduling behaviour
// (e.g. "a preemption happened at a batch boundary").
package trace

import (
	"fmt"
	"sort"
	"strings"

	"nimblock/internal/sim"
)

// Kind classifies a trace event.
type Kind int

const (
	// KindArrival marks an application entering the pending queue.
	KindArrival Kind = iota
	// KindReconfigStart marks a reconfiguration request reaching the CAP queue.
	KindReconfigStart
	// KindReconfigDone marks user logic becoming active in a slot.
	KindReconfigDone
	// KindItemStart marks a task beginning one batch item.
	KindItemStart
	// KindItemDone marks a task finishing one batch item.
	KindItemDone
	// KindTaskDone marks a task finishing its whole batch.
	KindTaskDone
	// KindPreemptRequest marks the scheduler requesting batch-preemption.
	KindPreemptRequest
	// KindPreempt marks a preemption honoured at a batch boundary.
	KindPreempt
	// KindCheckpoint marks a mid-item preemption honoured by the
	// checkpoint subsystem: state is captured at the latest passed
	// preemption point (Dur is the save transfer time, zero when no new
	// point was passed) and the slot is released.
	KindCheckpoint
	// KindRetire marks an application completing.
	KindRetire
	// KindFault marks a reconfiguration fault.
	KindFault
	// KindRetry marks a faulted reconfiguration attempt being retried
	// (with backoff) on the CAP.
	KindRetry
	// KindWatchdog marks the hypervisor watchdog killing a task whose
	// in-flight item ran past its deadline (k x the HLS estimate); the
	// lost item is re-executed later.
	KindWatchdog
	// KindQuarantine marks a slot being quarantined after exceeding the
	// fault threshold; a KindSlotOffline event follows.
	KindQuarantine
	// KindSlotOffline marks a slot leaving service permanently (hardware
	// failure or quarantine); the usable slot count drops by one.
	KindSlotOffline
	// KindCheckpointSave marks a periodic checkpoint completing through
	// the CAP while the item keeps running; Dur is the transfer time and
	// Progress the nominal work captured by the snapshot.
	KindCheckpointSave
	// KindRestore marks an item resuming from its last checkpoint on a
	// (possibly different) slot; Dur is the CAP restore transfer time and
	// Progress the nominal work the snapshot carried over.
	KindRestore
	// KindCheckpointFault marks a lost or corrupt checkpoint discovered
	// at restore time; the item falls back to from-scratch re-execution.
	KindCheckpointFault

	// kindCount is a sentinel one past the last valid Kind. Every new
	// kind MUST be added above it so iteration (JSON interchange, tests)
	// cannot silently drop events.
	kindCount
)

// NumKinds reports the number of defined event kinds.
func NumKinds() int { return int(kindCount) }

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindArrival:
		return "arrival"
	case KindReconfigStart:
		return "reconfig-start"
	case KindReconfigDone:
		return "reconfig-done"
	case KindItemStart:
		return "item-start"
	case KindItemDone:
		return "item-done"
	case KindTaskDone:
		return "task-done"
	case KindPreemptRequest:
		return "preempt-request"
	case KindPreempt:
		return "preempt"
	case KindCheckpoint:
		return "checkpoint"
	case KindRetire:
		return "retire"
	case KindFault:
		return "fault"
	case KindRetry:
		return "retry"
	case KindWatchdog:
		return "watchdog"
	case KindQuarantine:
		return "quarantine"
	case KindSlotOffline:
		return "slot-offline"
	case KindCheckpointSave:
		return "ckpt-save"
	case KindRestore:
		return "restore"
	case KindCheckpointFault:
		return "ckpt-fault"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded occurrence. Fields that do not apply are -1
// (Task/Slot/Item) or 0 (Dur/Progress).
type Event struct {
	At    sim.Time
	Kind  Kind
	App   string
	AppID int64
	Task  int
	Slot  int
	Item  int
	// Dur carries the transfer time of checkpoint save/restore events.
	Dur sim.Duration
	// Progress carries the nominal work captured or resumed by a
	// checkpoint save/restore event.
	Progress sim.Duration
}

// String renders the event as one log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10.3f  %-16s %s#%d", e.At.Seconds(), e.Kind, e.App, e.AppID)
	if e.Task >= 0 {
		fmt.Fprintf(&b, " task=%d", e.Task)
	}
	if e.Slot >= 0 {
		fmt.Fprintf(&b, " slot=%d", e.Slot)
	}
	if e.Item >= 0 {
		fmt.Fprintf(&b, " item=%d", e.Item)
	}
	if e.Dur > 0 {
		fmt.Fprintf(&b, " dur=%v", e.Dur)
	}
	if e.Progress > 0 {
		fmt.Fprintf(&b, " progress=%v", e.Progress)
	}
	return b.String()
}

// Log accumulates the events of one board. It is a sink like any other
// (it has the obs.Sink method set): attach it as, or tee it into, the
// hypervisor's observer to record a run. A Log takes no lock, so it must
// record exactly one board. A nil *Log is valid and discards everything.
type Log struct {
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Observe records an event. No-op on a nil log.
func (l *Log) Observe(e Event) {
	if l == nil {
		return
	}
	l.events = append(l.events, e)
}

// Replay feeds every recorded event, in order, to a sink (any obs.Sink,
// a schedtest.Checker), as if it had watched the run live.
func (l *Log) Replay(to interface{ Observe(Event) }) {
	for _, e := range l.Events() {
		to.Observe(e)
	}
}

// Events returns the recorded events in order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Len reports the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// End is the time of the latest recorded event, zero for an empty log.
func (l *Log) End() sim.Time {
	var end sim.Time
	for _, e := range l.Events() {
		end = max(end, e.At)
	}
	return end
}

// Count tallies events of one kind.
func (l *Log) Count(k Kind) int {
	n := 0
	for _, e := range l.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Filter returns events matching the predicate.
func (l *Log) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range l.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders every event, one per line.
func (l *Log) Dump() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Interval is one busy span of a slot, paired from the log: a
// reconfiguration (KindReconfigStart to KindReconfigDone) or one item's
// execution (KindItemStart to KindItemDone).
type Interval struct {
	Slot     int
	From, To sim.Time
	App      string // the application that started the span
	Kind     byte   // 'R' reconfiguration, '#' compute
}

// Intervals pairs each slot's starts with their completions, in
// completion order. It is the one pairing every slot-occupancy chart
// draws from. A start that never completes (an item cut short by a
// checkpoint, a watchdog kill or a slot failure) yields no interval; the
// slot's next start of the same kind replaces it.
func (l *Log) Intervals() []Interval {
	var out []Interval
	openReconfig := map[int]Event{}
	openItem := map[int]Event{}
	closeSpan := func(open map[int]Event, e Event, kind byte) {
		if from, ok := open[e.Slot]; ok {
			out = append(out, Interval{Slot: e.Slot, From: from.At, To: e.At, App: from.App, Kind: kind})
			delete(open, e.Slot)
		}
	}
	for _, e := range l.Events() {
		switch e.Kind {
		case KindReconfigStart:
			openReconfig[e.Slot] = e
		case KindReconfigDone:
			closeSpan(openReconfig, e, 'R')
		case KindItemStart:
			openItem[e.Slot] = e
		case KindItemDone:
			closeSpan(openItem, e, '#')
		}
	}
	return out
}

// Gantt renders a per-slot occupancy chart with the given number of
// character columns spanning [0, end]. 'R' cells are reconfiguration,
// '#' cells are item execution, '.' is idle-or-waiting.
func (l *Log) Gantt(slots int, end sim.Time, cols int) string {
	if cols < 1 || end <= 0 || l.Len() == 0 {
		return ""
	}
	perSlot := make([][]Interval, slots)
	for _, iv := range l.Intervals() {
		if iv.Slot >= 0 && iv.Slot < slots {
			perSlot[iv.Slot] = append(perSlot[iv.Slot], iv)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gantt 0s .. %v (%d cols, R=reconfig #=compute)\n", end, cols)
	for s := 0; s < slots; s++ {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		ivs := perSlot[s]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].From < ivs[j].From })
		for _, iv := range ivs {
			lo := int(int64(iv.From) * int64(cols) / int64(end))
			hi := int(int64(iv.To) * int64(cols) / int64(end))
			if hi == lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < cols; i++ {
				row[i] = iv.Kind
			}
		}
		fmt.Fprintf(&b, "slot %2d |%s|\n", s, row)
	}
	return b.String()
}
