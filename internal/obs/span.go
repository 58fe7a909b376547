package obs

import (
	"encoding/json"
	"sort"
	"sync"

	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// SegmentKind classifies one span segment.
type SegmentKind string

// Segment kinds. Interval segments (From < To) cover reconfiguration,
// compute, and the window between a preemption request and the batch
// boundary that honours it; instant segments (From == To) mark recovery
// activity.
const (
	SegReconfig    SegmentKind = "reconfig"
	SegCompute     SegmentKind = "compute"
	SegPreemptWait SegmentKind = "preempt-wait"
	SegPreempted   SegmentKind = "preempted"
	SegCheckpoint  SegmentKind = "checkpoint"
	SegFault       SegmentKind = "fault"
	SegRetry       SegmentKind = "retry"
	SegWatchdog    SegmentKind = "watchdog"
)

// Segment is one interval (or instant) of an application's life.
type Segment struct {
	Kind SegmentKind `json:"kind"`
	From sim.Time    `json:"from_us"`
	To   sim.Time    `json:"to_us"`
	Task int         `json:"task"`
	Slot int         `json:"slot"`
	Item int         `json:"item"`
}

// AppSpan is the folded lifetime of one application: the four milestones
// of the paper's response-time breakdown (submit, first configuration,
// first launch, completion) plus every execution and recovery segment in
// between. Milestones that have not happened yet are -1, so spans are
// meaningful mid-run.
type AppSpan struct {
	App         string    `json:"app"`
	AppID       int64     `json:"app_id"`
	Submit      sim.Time  `json:"submit_us"`
	FirstConfig sim.Time  `json:"first_config_us"`
	FirstLaunch sim.Time  `json:"first_launch_us"`
	Complete    sim.Time  `json:"complete_us"`
	Preemptions int       `json:"preemptions"`
	Items       int       `json:"items"`
	Segments    []Segment `json:"segments"`
}

// Response is completion minus submission, or -1 while incomplete.
func (s AppSpan) Response() sim.Duration {
	if s.Complete < 0 || s.Submit < 0 {
		return -1
	}
	return s.Complete.Sub(s.Submit)
}

// Wait is first launch minus submission, or -1 before the first item.
func (s AppSpan) Wait() sim.Duration {
	if s.FirstLaunch < 0 || s.Submit < 0 {
		return -1
	}
	return s.FirstLaunch.Sub(s.Submit)
}

// openKey identifies an in-flight interval by application and slot.
type openKey struct {
	appID int64
	slot  int
}

// SpanBuilder folds raw trace events into per-application spans online.
// It implements Sink and is safe for concurrent use; feed it live as an
// observer or replay a recorded log through it (trace.Log.Replay).
type SpanBuilder struct {
	mu       sync.Mutex
	byID     map[int64]*AppSpan
	reconfig map[openKey]sim.Time // open reconfiguration intervals
	compute  map[openKey]Segment  // open compute intervals
	preempt  map[openKey]sim.Time // open preempt-request windows
}

// NewSpanBuilder returns an empty builder.
func NewSpanBuilder() *SpanBuilder {
	return &SpanBuilder{
		byID:     map[int64]*AppSpan{},
		reconfig: map[openKey]sim.Time{},
		compute:  map[openKey]Segment{},
		preempt:  map[openKey]sim.Time{},
	}
}

func (b *SpanBuilder) span(e trace.Event) *AppSpan {
	s, ok := b.byID[e.AppID]
	if !ok {
		s = &AppSpan{App: e.App, AppID: e.AppID, Submit: -1, FirstConfig: -1, FirstLaunch: -1, Complete: -1}
		b.byID[e.AppID] = s
	}
	return s
}

// Observe implements Sink.
func (b *SpanBuilder) Observe(e trace.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch e.Kind {
	case trace.KindArrival:
		b.span(e).Submit = e.At
	case trace.KindRetire:
		b.span(e).Complete = e.At
	case trace.KindReconfigStart:
		s := b.span(e)
		if s.FirstConfig < 0 {
			s.FirstConfig = e.At
		}
		b.reconfig[openKey{e.AppID, e.Slot}] = e.At
	case trace.KindReconfigDone:
		k := openKey{e.AppID, e.Slot}
		if from, ok := b.reconfig[k]; ok {
			delete(b.reconfig, k)
			s := b.span(e)
			s.Segments = append(s.Segments, Segment{Kind: SegReconfig, From: from, To: e.At, Task: e.Task, Slot: e.Slot, Item: -1})
		}
	case trace.KindItemStart:
		s := b.span(e)
		if s.FirstLaunch < 0 {
			s.FirstLaunch = e.At
		}
		b.compute[openKey{e.AppID, e.Slot}] = Segment{Kind: SegCompute, From: e.At, Task: e.Task, Slot: e.Slot, Item: e.Item}
	case trace.KindItemDone:
		k := openKey{e.AppID, e.Slot}
		if seg, ok := b.compute[k]; ok {
			delete(b.compute, k)
			seg.To = e.At
			s := b.span(e)
			s.Items++
			s.Segments = append(s.Segments, seg)
		}
	case trace.KindPreemptRequest:
		b.preempt[openKey{e.AppID, e.Slot}] = e.At
	case trace.KindPreempt, trace.KindCheckpoint:
		s := b.span(e)
		s.Preemptions++
		kind := SegPreempted
		if e.Kind == trace.KindCheckpoint {
			kind = SegCheckpoint
		}
		k := openKey{e.AppID, e.Slot}
		from := e.At
		if at, ok := b.preempt[k]; ok {
			delete(b.preempt, k)
			from = at
			if from < e.At {
				s.Segments = append(s.Segments, Segment{Kind: SegPreemptWait, From: from, To: e.At, Task: e.Task, Slot: e.Slot, Item: -1})
			}
		}
		s.Segments = append(s.Segments, Segment{Kind: kind, From: e.At, To: e.At, Task: e.Task, Slot: e.Slot, Item: e.Item})
		// An aborted checkpoint save leaves its open compute interval
		// behind; discard it so a later item on the slot cannot pair
		// against a stale start.
		delete(b.compute, k)
	case trace.KindFault, trace.KindRetry, trace.KindWatchdog:
		kind := SegFault
		switch e.Kind {
		case trace.KindRetry:
			kind = SegRetry
		case trace.KindWatchdog:
			kind = SegWatchdog
		}
		s := b.span(e)
		s.Segments = append(s.Segments, Segment{Kind: kind, From: e.At, To: e.At, Task: e.Task, Slot: e.Slot, Item: e.Item})
		if e.Kind == trace.KindWatchdog {
			// The killed item's compute interval never completes.
			delete(b.compute, openKey{e.AppID, e.Slot})
		}
	}
}

// Spans returns a snapshot of every application span ordered by AppID.
// Segments within a span are ordered by start time.
func (b *SpanBuilder) Spans() []AppSpan {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]AppSpan, 0, len(b.byID))
	for _, s := range b.byID {
		cp := *s
		cp.Segments = append([]Segment(nil), s.Segments...)
		sort.SliceStable(cp.Segments, func(i, j int) bool { return cp.Segments[i].From < cp.Segments[j].From })
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AppID < out[j].AppID })
	return out
}

// MarshalJSON exports the span timeline (an array of AppSpan objects).
func (b *SpanBuilder) MarshalJSON() ([]byte, error) {
	return json.Marshal(b.Spans())
}
