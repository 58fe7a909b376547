package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// EventID identifies a scheduled event for Cancel: the event's position
// in the engine's slab in the low 32 bits and its generation in the high
// 32. Releasing an event bumps its generation, so a handle to an event
// that fired, was cancelled, or was recycled for a later schedule never
// matches again. The zero EventID is never issued.
type EventID int64

// The pending-event store is a hierarchical timing wheel: wheelLevels
// levels of wheelSlots buckets each, where a level-l bucket spans
// 64^l microseconds. Level 0 buckets are single instants, so one bucket
// holds exactly the events of one timestamp; higher levels hold
// coarser-grained far-future events that cascade down as the wheel
// reference time advances. With 7 levels the wheel spans 64^7 us
// (~139 years of simulated time) ahead of the reference; anything beyond
// that lands in an unsorted overflow list that is consulted only when
// the wheel drains. See DESIGN.md section 13 for the level-placement
// invariants.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 7
	chunkEvents = 128
	sweepFloor  = 64
)

// event is a pending callback in the simulation. Events are allocated
// from a per-engine freelist (chunked, intrusively linked through next)
// and never touch the garbage collector on the steady-state path.
type event struct {
	at   Time
	seq  int64  // schedule order; breaks ties deterministically
	fn   func() // nil marks a cancelled event (tombstone)
	next *event // bucket chain, or freelist chain
	idx  uint32 // fixed slab position: chunks[idx/chunkEvents][idx%chunkEvents]
	gen  uint32 // bumped on release; never zero
}

// wheelLevel is one ring of the timing wheel. occupied has bit s set iff
// slot[s] has a (possibly tombstoned) chain.
type wheelLevel struct {
	occupied uint64
	slot     [wheelSlots]*event
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is ready to use and behaves identically to NewEngine().
// Engines are not safe for concurrent use; the entire Nimblock simulation
// is deliberately single-threaded so that runs are bit-for-bit
// reproducible. Parallelism lives one layer up: independent runs each own
// an engine (see internal/experiments).
type Engine struct {
	now Time
	// base is the wheel reference time: every stored event's level is a
	// pure function of (event time, base). It trails now between batches
	// and advances monotonically while the engine locates the next batch;
	// scheduling behind it forces a rewind (rare, only possible between
	// run calls).
	base     Time
	levels   [wheelLevels]wheelLevel
	overflow []*event // events beyond the wheel horizon; always later than every wheel event

	// batch holds the events of the single next instant, sorted by seq.
	// Entries before batchPos have fired (and are nilled out); cancelled
	// entries are skipped and freed as they surface.
	batch    []*event
	batchPos int
	batchAt  Time

	// chunks is the event slab, in allocation order; an event's idx
	// addresses it here, which is how Cancel resolves a handle.
	chunks   []*[chunkEvents]event
	freeList *event
	pending  int   // scheduled events not yet fired or cancelled
	dead     int   // tombstones still parked in the wheel/overflow/batch
	fired    int64 // total events fired over the engine's lifetime
	nextSeq  int64
	stopped  bool
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting to fire. Cancelled events
// leave tombstones in the wheel but are not counted.
func (e *Engine) Pending() int { return e.pending }

// Fired reports the total number of events fired since the engine was
// created. It feeds the events/sec figure in cmd/nimblock-bench.
func (e *Engine) Fired() int64 { return e.fired }

// alloc takes an event from the freelist, growing it by a chunk when
// empty. Chunk allocation keeps freelist growth at one GC object per
// chunkEvents events instead of one per event.
func (e *Engine) alloc() *event {
	if e.freeList == nil {
		chunk := new([chunkEvents]event)
		base := uint32(len(e.chunks) * chunkEvents)
		for i := range chunk {
			chunk[i].idx, chunk[i].gen = base+uint32(i), 1
			if i+1 < chunkEvents {
				chunk[i].next = &chunk[i+1]
			}
		}
		e.chunks = append(e.chunks, chunk)
		e.freeList = &chunk[0]
	}
	ev := e.freeList
	e.freeList = ev.next
	ev.next = nil
	return ev
}

// release returns an event to the freelist, dropping the callback
// reference so the freelist does not retain closures (and whatever they
// capture), and retires its handle by bumping the generation.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	if ev.gen++; ev.gen == 0 {
		ev.gen = 1
	}
	ev.next = e.freeList
	e.freeList = ev
}

// freeDead releases a tombstone encountered while walking the structure.
func (e *Engine) freeDead(ev *event) {
	e.dead--
	e.release(ev)
}

// insert places an event into the wheel (or overflow) according to the
// current reference time. The level is the bit position of the highest
// bit in which the event time differs from base, divided into 6-bit
// bands: events sharing all but the low 6 bits of base go to level 0,
// and so on. This is O(1) and keeps the invariant that every event at
// level l+1 fires after every event at levels <= l.
func (e *Engine) insert(ev *event) {
	diff := uint64(ev.at) ^ uint64(e.base)
	var lvl int
	if diff != 0 {
		lvl = (63 - bits.LeadingZeros64(diff)) / wheelBits
	}
	if lvl >= wheelLevels {
		e.overflow = append(e.overflow, ev)
		return
	}
	s := (uint64(ev.at) >> (uint(lvl) * wheelBits)) & wheelMask
	lv := &e.levels[lvl]
	ev.next = lv.slot[s]
	lv.slot[s] = ev
	lv.occupied |= 1 << uint(s)
}

// rewind lowers the wheel reference to at and rebuilds every placement.
// The reference runs ahead of the clock while the engine locates the
// next batch (RunUntil peeks past its deadline, for example), so a
// driver that stops and then schedules between now and the previously
// found minimum lands behind base. That can only happen between run
// calls — callbacks always schedule at >= now == base — and costs
// O(pending), so correctness is cheap where it matters.
func (e *Engine) rewind(at Time) {
	var head *event
	for l := range e.levels {
		lv := &e.levels[l]
		for occ := lv.occupied; occ != 0; occ &= occ - 1 {
			s := bits.TrailingZeros64(occ)
			for ev := lv.slot[s]; ev != nil; {
				next := ev.next
				ev.next = head
				head = ev
				ev = next
			}
			lv.slot[s] = nil
		}
		lv.occupied = 0
	}
	for _, ev := range e.overflow {
		ev.next = head
		head = ev
	}
	e.overflow = e.overflow[:0]
	for _, ev := range e.batch[e.batchPos:] {
		ev.next = head
		head = ev
	}
	e.batch = e.batch[:0]
	e.batchPos = 0
	e.base = at
	for ev := head; ev != nil; {
		next := ev.next
		if ev.fn == nil {
			e.freeDead(ev)
		} else {
			e.insert(ev)
		}
		ev = next
	}
}

// compareSeq orders batch events; all events in a batch share one
// timestamp, so schedule order is the whole order.
func compareSeq(a, b *event) int {
	if a.seq < b.seq {
		return -1
	}
	return 1
}

// loadBatch locates the next instant with live events and drains its
// level-0 bucket into batch, sorted by seq. Cascading re-disperses one
// higher-level bucket at a time: the lowest occupied level's first
// bucket always contains the global minimum (overflow events are beyond
// every wheel event by construction), and each cascaded event strictly
// descends at least one level, so the loop terminates and each event is
// touched O(wheelLevels) times over its life. A first bucket holding a
// single live event is that minimum itself, so it becomes the batch
// directly with base moved to its time, without descending level by
// level. It reports false when no live events remain.
func (e *Engine) loadBatch() bool {
	e.batch = e.batch[:0]
	e.batchPos = 0
	for {
		if lv := &e.levels[0]; lv.occupied != 0 {
			s := bits.TrailingZeros64(lv.occupied)
			at := (e.base &^ wheelMask) | Time(s)
			for ev := lv.slot[s]; ev != nil; {
				next := ev.next
				if ev.fn == nil {
					e.freeDead(ev)
				} else {
					ev.next = nil
					e.batch = append(e.batch, ev)
				}
				ev = next
			}
			lv.slot[s] = nil
			lv.occupied &^= 1 << uint(s)
			if len(e.batch) == 0 {
				continue // bucket was all tombstones
			}
			e.base = at
			e.batchAt = at
			if len(e.batch) > 1 {
				slices.SortFunc(e.batch, compareSeq)
			}
			return true
		}
		lvl := 1
		for lvl < wheelLevels && e.levels[lvl].occupied == 0 {
			lvl++
		}
		if lvl == wheelLevels {
			if !e.spillOverflow() {
				return false
			}
			continue
		}
		lv := &e.levels[lvl]
		s := bits.TrailingZeros64(lv.occupied)
		head := lv.slot[s]
		lv.slot[s] = nil
		lv.occupied &^= 1 << uint(s)
		if head.next == nil && head.fn != nil {
			// A lone live event is the minimum: fire it from here.
			e.base = head.at
			e.batchAt = head.at
			e.batch = append(e.batch, head)
			return true
		}
		width := Time(1) << (uint(lvl) * wheelBits)
		bucketStart := (e.base &^ (width<<wheelBits - 1)) + Time(s)*width
		if bucketStart > e.base {
			e.base = bucketStart
		}
		for ev := head; ev != nil; {
			next := ev.next
			if ev.fn == nil {
				e.freeDead(ev)
			} else {
				e.insert(ev)
			}
			ev = next
		}
	}
}

// spillOverflow advances the reference to the earliest live overflow
// event and re-inserts the overflow list against it; events within the
// new wheel horizon land in the wheel (the minimum always does — it
// becomes level 0), the rest stay in overflow. It reports false when no
// live events remain anywhere.
func (e *Engine) spillOverflow() bool {
	min := Time(-1)
	n := 0
	for _, ev := range e.overflow {
		if ev.fn == nil {
			e.freeDead(ev)
			continue
		}
		e.overflow[n] = ev
		n++
		if min < 0 || ev.at < min {
			min = ev.at
		}
	}
	e.overflow = e.overflow[:n]
	if n == 0 {
		return false
	}
	e.base = min
	ovf := e.overflow
	e.overflow = e.overflow[:0]
	for _, ev := range ovf {
		e.insert(ev)
	}
	return true
}

// ensureNext positions the engine at the next live event, freeing any
// cancelled-after-load batch entries it steps over. It reports false
// when the engine has drained.
func (e *Engine) ensureNext() bool {
	for {
		for e.batchPos < len(e.batch) {
			ev := e.batch[e.batchPos]
			if ev.fn != nil {
				return true
			}
			e.batch[e.batchPos] = nil
			e.batchPos++
			e.freeDead(ev)
		}
		if !e.loadBatch() {
			return false
		}
	}
}

// At schedules fn to run at absolute time at and returns a handle that
// Cancel accepts. Handles cost nothing to issue or keep; callers that
// never cancel simply drop them. Scheduling in the past (before Now)
// panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn func()) EventID {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (at=%v now=%v)", at, e.now))
	}
	if at < e.base {
		e.rewind(at)
	}
	e.nextSeq++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = at, e.nextSeq, fn
	e.insert(ev)
	e.pending++
	return EventID(int64(ev.gen)<<32 | int64(ev.idx))
}

// After schedules fn to run d after the current time and returns its
// cancellation handle. Negative delays are clamped to zero.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a pending event. It reports whether the event was still
// pending: false if it already fired or was cancelled, and false for a
// handle whose slab slot has since been reused by another event — the
// generation no longer matches, so the newer event is untouched.
//
// Cancellation is lazy: the event becomes a tombstone that the wheel
// frees when its bucket is next touched, so Cancel never restructures
// the queue. Pending() stays exact — tombstones are not counted. A
// sweep reclaims tombstone memory early if they ever outnumber live
// events two to one.
func (e *Engine) Cancel(id EventID) bool {
	idx := uint32(id)
	if int(idx/chunkEvents) >= len(e.chunks) {
		return false
	}
	ev := &e.chunks[idx/chunkEvents][idx%chunkEvents]
	if ev.gen != uint32(id>>32) || ev.fn == nil {
		return false
	}
	ev.fn = nil
	e.pending--
	e.dead++
	if e.dead > sweepFloor && e.dead > 2*e.pending {
		e.sweepDead()
	}
	return true
}

// sweepDead walks the wheel and overflow freeing tombstones. Batch
// entries are left for ensureNext, which frees them on the next step.
func (e *Engine) sweepDead() {
	for l := range e.levels {
		lv := &e.levels[l]
		for occ := lv.occupied; occ != 0; occ &= occ - 1 {
			s := bits.TrailingZeros64(occ)
			var head *event
			for ev := lv.slot[s]; ev != nil; {
				next := ev.next
				if ev.fn == nil {
					e.freeDead(ev)
				} else {
					ev.next = head
					head = ev
				}
				ev = next
			}
			lv.slot[s] = head
			if head == nil {
				lv.occupied &^= 1 << uint(s)
			}
		}
	}
	n := 0
	for _, ev := range e.overflow {
		if ev.fn == nil {
			e.freeDead(ev)
			continue
		}
		e.overflow[n] = ev
		n++
	}
	e.overflow = e.overflow[:n]
}

// Stop halts Run after the current event's callback returns.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if !e.ensureNext() {
		return false
	}
	ev := e.batch[e.batchPos]
	e.batch[e.batchPos] = nil
	e.batchPos++
	e.now = ev.at
	e.pending--
	e.fired++
	fn := ev.fn
	e.release(ev)
	fn()
	return true
}

// Run fires events until the queue drains or Stop is called. It returns
// the number of events fired.
func (e *Engine) Run() int {
	e.stopped = false
	n := 0
	for !e.stopped && e.Step() {
		n++
	}
	return n
}

// DrainUntil fires events with time <= deadline like RunUntil, but
// leaves the clock at the last fired event instead of advancing it to
// the deadline — the quiescence point for sampling time-integrated
// state (energy accrual) without pricing the idle tail to the horizon.
func (e *Engine) DrainUntil(deadline Time) int {
	e.stopped = false
	n := 0
	for !e.stopped && e.ensureNext() && e.batchAt <= deadline {
		e.Step()
		n++
	}
	return n
}

// RunUntil fires events with time <= deadline. The clock finishes at
// min(deadline, time of last fired event); if events remain beyond the
// deadline the clock is advanced to the deadline.
func (e *Engine) RunUntil(deadline Time) int {
	e.stopped = false
	n := 0
	for !e.stopped && e.ensureNext() && e.batchAt <= deadline {
		e.Step()
		n++
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}
