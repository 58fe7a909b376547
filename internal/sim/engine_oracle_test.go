package sim

// The determinism oracle: the pre-wheel binary-heap engine, kept here as
// a reference implementation. Randomized interleavings of
// At/After/Cancel/Step/Run/RunUntil are driven against both
// engines and must produce identical firing orders, clock advancement,
// Pending counts, and Cancel results — byte-identical traces are the
// contract the wheel must honour.

import (
	"container/heap"
	"math/bits"
	"math/rand"
	"testing"
)

// heapEvent mirrors the old event struct.
type heapEvent struct {
	at    Time
	seq   int64
	id    EventID
	fn    func()
	index int
}

type refHeap []*heapEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	e := x.(*heapEvent)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// heapEngine is the old container/heap engine with the same API surface
// as Engine. Its handles are sequence numbers kept in a live map: a
// different mechanism from the wheel's slab generations, with the same
// contract.
type heapEngine struct {
	now     Time
	pq      refHeap
	live    map[EventID]*heapEvent
	nextSeq int64
	nextID  EventID
	stopped bool
}

func (e *heapEngine) Now() Time    { return e.now }
func (e *heapEngine) Pending() int { return len(e.pq) }

func (e *heapEngine) At(at Time, fn func()) EventID {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	e.nextSeq++
	e.nextID++
	ev := &heapEvent{at: at, seq: e.nextSeq, id: e.nextID, fn: fn}
	heap.Push(&e.pq, ev)
	if e.live == nil {
		e.live = map[EventID]*heapEvent{}
	}
	e.live[ev.id] = ev
	return ev.id
}

func (e *heapEngine) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

func (e *heapEngine) Cancel(id EventID) bool {
	ev, ok := e.live[id]
	if !ok {
		return false
	}
	delete(e.live, id)
	heap.Remove(&e.pq, ev.index)
	return true
}

func (e *heapEngine) Stop() { e.stopped = true }

func (e *heapEngine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(*heapEvent)
	delete(e.live, ev.id)
	e.now = ev.at
	ev.fn()
	return true
}

func (e *heapEngine) Run() int {
	e.stopped = false
	n := 0
	for !e.stopped && e.Step() {
		n++
	}
	return n
}

func (e *heapEngine) RunUntil(deadline Time) int {
	e.stopped = false
	n := 0
	for !e.stopped && len(e.pq) > 0 && e.pq[0].at <= deadline {
		e.Step()
		n++
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

// simEngine is the common surface the oracle drives on both engines.
type simEngine interface {
	Now() Time
	Pending() int
	At(Time, func()) EventID
	After(Duration, func()) EventID
	Cancel(EventID) bool
	Step() bool
	Run() int
	RunUntil(Time) int
	Stop()
}

// oracle ops, encoded as bytes so the fuzzer shares the driver.
const (
	opAt byte = iota
	opAfter
	opCancel
	opStep
	opRun
	opRunUntil
	opNested // schedule an event whose callback schedules/cancels more
	opCount
)

// driveOps applies one op script to an engine and returns the trace:
// every fired event as (tag, time), plus clock/pending/return-value
// checkpoints after each op. Callbacks may schedule and cancel, so the
// trace also exercises same-instant and in-callback paths. Every kept
// handle stays in the cancel pool after its event fires or is cancelled,
// so Cancel is also driven on handles whose wheel slab slot has been
// recycled by a later event.
func driveOps(eng simEngine, data []byte) []int64 {
	var trace []int64
	record := func(tag int, at Time) {
		trace = append(trace, int64(tag), int64(at))
	}
	var ids []EventID
	tag := 0
	i := 0
	next := func() int64 {
		if i >= len(data) {
			return 0
		}
		v := int64(data[i])
		i++
		return v
	}
	for i < len(data) {
		op := data[i] % byte(opCount)
		i++
		switch op {
		case opAt:
			t := tag
			tag++
			ids = append(ids, eng.At(eng.Now().Add(Duration(next()*3)), func() { record(t, eng.Now()) }))
		case opAfter:
			t := tag
			tag++
			ids = append(ids, eng.After(Duration(next()*5-64), func() { record(t, eng.Now()) }))
		case opCancel:
			if len(ids) > 0 {
				id := ids[int(next())%len(ids)]
				ok := eng.Cancel(id)
				if ok {
					trace = append(trace, -1)
				} else {
					trace = append(trace, -2)
				}
			}
		case opStep:
			if eng.Step() {
				trace = append(trace, -3)
			}
		case opRun:
			trace = append(trace, -4, int64(eng.Run()))
		case opRunUntil:
			trace = append(trace, -5, int64(eng.RunUntil(eng.Now().Add(Duration(next()*7)))))
		case opNested:
			t := tag
			tag++
			d := Duration(next() * 3)
			inner := Duration(next() * 2)
			eng.After(d, func() {
				record(t, eng.Now())
				id := eng.After(inner, func() { record(t+100000, eng.Now()) })
				eng.After(inner, func() { record(t+200000, eng.Now()) })
				if inner%3 == 0 {
					if eng.Cancel(id) {
						trace = append(trace, -6)
					}
				}
				eng.After(0, func() { record(t+300000, eng.Now()) })
			})
			tag++ // reserve tag space for nested callbacks
		}
		trace = append(trace, -7, int64(eng.Now()), int64(eng.Pending()))
	}
	trace = append(trace, -8, int64(eng.Run()), int64(eng.Now()), int64(eng.Pending()))
	return trace
}

func compareEngines(t *testing.T, data []byte) {
	t.Helper()
	got := driveOps(NewEngine(), data)
	want := driveOps(&heapEngine{}, data)
	if len(got) != len(want) {
		t.Fatalf("trace length mismatch: wheel %d heap %d\nops=%v", len(got), len(want), data)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at %d: wheel %d heap %d\nops=%v\nwheel=%v\nheap=%v",
				i, got[i], want[i], data, got, want)
		}
	}
}

// TestEngineMatchesHeapOracle drives randomized op scripts through the
// wheel engine and the reference heap engine and requires identical
// traces.
func TestEngineMatchesHeapOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		data := make([]byte, n)
		rng.Read(data)
		compareEngines(t, data)
	}
}

// TestEngineOracleFarFuture forces the overflow list and rewind paths:
// events beyond the wheel horizon, then earlier arrivals behind the
// advanced reference.
func TestEngineOracleFarFuture(t *testing.T) {
	run := func(eng simEngine) []int64 {
		var trace []int64
		record := func(tag int) { trace = append(trace, int64(tag), int64(eng.Now())) }
		horizon := Time(1) << 45 // beyond the 64^7-us wheel span
		eng.At(horizon, func() { record(1) })
		eng.At(horizon+1, func() { record(2) })
		id := eng.At(horizon+2, func() { record(3) })
		eng.At(5, func() { record(4) })
		trace = append(trace, int64(eng.RunUntil(10)), int64(eng.Now()))
		// The engine has peeked at the far-future minimum; schedule behind it.
		eng.At(20, func() { record(5) })
		eng.Cancel(id)
		trace = append(trace, int64(eng.Run()), int64(eng.Now()), int64(eng.Pending()))
		return trace
	}
	got := run(NewEngine())
	want := run(&heapEngine{})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("far-future trace diverges at %d: wheel=%v heap=%v", i, got, want)
		}
	}
}

// FuzzEngineOracle lets the fuzzer search for op scripts where the wheel
// and the heap reference disagree.
func FuzzEngineOracle(f *testing.F) {
	f.Add([]byte{0, 10, 2, 20, 4, 0, 6})
	f.Add([]byte{8, 3, 3, 8, 0, 0, 6, 5, 5, 5})
	f.Add([]byte{2, 255, 4, 0, 7, 200, 6})
	rng := rand.New(rand.NewSource(7))
	seed := make([]byte, 64)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		got := driveOps(NewEngine(), data)
		want := driveOps(&heapEngine{}, data)
		if len(got) != len(want) {
			t.Fatalf("trace length mismatch: wheel %d heap %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trace diverges at %d: wheel %d heap %d", i, got[i], want[i])
			}
		}
	})
}

// firstBucket describes the bucket the engine drains next once its
// current batch is spent: its wheel level, how many events it holds,
// and how many of those are live. The level is -1 while a batch is
// pending or when the wheel is empty.
func firstBucket(e *Engine) (lvl, n, live int) {
	if e.batchPos < len(e.batch) {
		return -1, 0, 0
	}
	for l := range e.levels {
		lv := &e.levels[l]
		if lv.occupied == 0 {
			continue
		}
		for ev := lv.slot[bits.TrailingZeros64(lv.occupied)]; ev != nil; ev = ev.next {
			n++
			if ev.fn != nil {
				live++
			}
		}
		return l, n, live
	}
	return -1, 0, 0
}

// TestEngineOracleLoneBucket drives the lone-bucket dispatch against
// the heap oracle: a lone event at levels 2 to 4 with later events above
// it, same-instant scheduling from its callback, a bucket shared with a
// tombstone, a tombstone-only bucket, and a RunUntil that stops just
// short of a lone event before the caller schedules behind it.
func TestEngineOracleLoneBucket(t *testing.T) {
	run := func(eng simEngine, want func(stage string, lvl, n, live int)) []int64 {
		var trace []int64
		record := func(tag int) { trace = append(trace, int64(tag), int64(eng.Now())) }
		step := func() {
			trace = append(trace, -1)
			if !eng.Step() {
				trace = append(trace, -2)
			}
		}
		for lvl := 2; lvl <= 4; lvl++ {
			width := Duration(1) << (6 * lvl)
			tag := 100 * lvl
			eng.After(3*width+5, func() {
				record(tag)
				eng.After(0, func() { record(tag + 1) })
				eng.At(eng.Now(), func() { record(tag + 2) })
				eng.After(1, func() { record(tag + 3) })
			})
			eng.After(40*width, func() { record(tag + 4) })
			eng.After(2*width<<6, func() { record(tag + 5) })
			want("lone", lvl, 1, 1)
			step()
			for i := 0; i < 3; i++ { // the callback's same-instant and next-instant events
				step()
			}
			want("later bucket", lvl, 1, 1)
			step()
			want("level above", lvl+1, 1, 1)
			step()
		}

		// A cancelled sibling shares the first level-3 bucket with a live
		// event, and a cancelled lone event leaves the next bucket holding
		// only its tombstone; both cascade.
		width := Duration(1) << 18
		eng.After(3*width+7, func() { record(1) })
		dead := eng.After(3*width+9, func() { record(2) })
		lone := eng.After(5*width, func() { record(3) })
		eng.After(9*width, func() { record(4) })
		trace = append(trace, int64(eng.Pending()))
		eng.Cancel(dead)
		eng.Cancel(lone)
		want("shared with a tombstone", 3, 2, 1)
		step()
		want("tombstone only", 3, 1, 0)
		trace = append(trace, int64(eng.Run()), int64(eng.Now()), int64(eng.Pending()))

		// RunUntil peeks at a lone event and stops just before it; the
		// caller then schedules behind it, which rewinds the wheel.
		at := eng.Now().Add(3*width + 11)
		eng.At(at, func() { record(5) })
		eng.At(at+Time(width), func() { record(6) })
		want("peeked by RunUntil", 3, 1, 1)
		trace = append(trace, int64(eng.RunUntil(at-1)), int64(eng.Now()))
		eng.At(at-1, func() { record(7) })
		eng.At(eng.Now().Add(2), func() { record(8) })
		eng.After(0, func() { record(9) })
		trace = append(trace, int64(eng.Run()), int64(eng.Now()), int64(eng.Pending()))
		return trace
	}
	wheel := NewEngine()
	got := run(wheel, func(stage string, lvl, n, live int) {
		t.Helper()
		if l, m, k := firstBucket(wheel); l != lvl || m != n || k != live {
			t.Fatalf("%s at %v: next bucket at level %d holds %d events, %d live; want level %d, %d, %d",
				stage, wheel.Now(), l, m, k, lvl, n, live)
		}
	})
	want := run(&heapEngine{}, func(string, int, int, int) {})
	if len(got) != len(want) {
		t.Fatalf("trace length mismatch: wheel=%v heap=%v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("lone-bucket trace diverges at %d: wheel=%v heap=%v", i, got, want)
		}
	}
}
