package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var tm Time
	tm = tm.Add(3 * Second)
	if tm != Time(3_000_000) {
		t.Fatalf("Add: got %d, want 3000000", tm)
	}
	if d := tm.Sub(Time(1_000_000)); d != 2*Second {
		t.Fatalf("Sub: got %v, want 2s", d)
	}
	if tm.Seconds() != 3.0 {
		t.Fatalf("Seconds: got %v, want 3.0", tm.Seconds())
	}
}

func TestDurationConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Milliseconds(80) != 80*Millisecond {
		t.Fatalf("Milliseconds(80) = %v", Milliseconds(80))
	}
	if FromStd(2*time.Second) != 2*Second {
		t.Fatalf("FromStd = %v", FromStd(2*time.Second))
	}
	if (80 * Millisecond).Milliseconds() != 80 {
		t.Fatalf("Milliseconds() = %v", (80 * Millisecond).Milliseconds())
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds() = %v", got)
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{500, 100, 300, 200, 400} {
		at := at
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{100, 200, 300, 400, 500}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakIsScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(42, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order %v, want ascending", order)
		}
	}
}

func TestEngineAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-5*Second, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v, want 0", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel reported event not pending")
	}
	if e.Cancel(id) {
		t.Fatal("double Cancel reported success")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// Events fire in (time, schedule-order) order, and cancelling one event
// of an instant leaves its neighbours' order intact.
func TestEngineSameInstantScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 1) })
	e.After(0, func() { order = append(order, 2) })
	id := e.After(0, func() { order = append(order, 4) })
	e.After(0, func() { order = append(order, 3) })
	e.Cancel(id)
	e.Run()
	want := []int{2, 3, 0, 1}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestEngineCancelAfterFireReportsFalse(t *testing.T) {
	e := NewEngine()
	id := e.At(10, func() {})
	e.Run()
	if e.Cancel(id) {
		t.Fatal("Cancel of a fired event reported success")
	}
}

// A handle outlives its event: once the event fires and its slab slot is
// recycled for a new event, the old handle must neither report success
// nor cancel the newcomer.
func TestEngineCancelRecycledHandle(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Run()
	fired := false
	fresh := e.At(2, func() { fired = true })
	if uint32(fresh) != uint32(stale) {
		t.Fatalf("new event took slab slot %d, want the recycled slot %d", uint32(fresh), uint32(stale))
	}
	if e.Cancel(stale) {
		t.Fatal("Cancel of a recycled handle reported success")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after stale Cancel, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel removed the event that reused the slot")
	}
	// The same holds for a slot recycled after a cancellation.
	gone := e.At(3, func() {})
	e.Cancel(gone)
	e.Run()
	fired = false
	e.At(4, func() { fired = true })
	if e.Cancel(gone) {
		t.Fatal("second Cancel of a cancelled, recycled handle reported success")
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel removed the event that reused a cancelled slot")
	}
}

// At and Cancel allocate nothing once the slab is warm: the handle is
// the slab position plus a generation, with no side table.
func TestEngineAtCancelZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	e.Cancel(e.At(1, fn))
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		id := e.After(5, fn)
		e.After(1, fn)
		e.Cancel(id)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Cancel allocated %.1f times per run, want 0", allocs)
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	ids := make([]EventID, 10)
	for i := 0; i < 10; i++ {
		i := i
		ids[i] = e.At(Time(i*10), func() { got = append(got, i) })
	}
	e.Cancel(ids[3])
	e.Cancel(ids[7])
	e.Run()
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8", len(got))
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestEngineSchedulingFromCallback(t *testing.T) {
	e := NewEngine()
	var seq []Time
	e.At(100, func() {
		seq = append(seq, e.Now())
		e.After(50, func() { seq = append(seq, e.Now()) })
	})
	e.Run()
	if len(seq) != 2 || seq[0] != 100 || seq[1] != 150 {
		t.Fatalf("seq = %v, want [100 150]", seq)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	NewEngine().At(1, nil)
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if n := e.Run(); n != 3 {
		t.Fatalf("Run fired %d events, want 3", n)
	}
	// Run again resumes.
	if n := e.Run(); n != 2 {
		t.Fatalf("resumed Run fired %d events, want 2", n)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	n := e.RunUntil(25)
	if n != 2 {
		t.Fatalf("RunUntil fired %d, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("clock at %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("total fired %d, want 4", len(fired))
	}
}

func TestEngineDrainUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	// Unlike RunUntil, the clock stays at the last fired event.
	if n := e.DrainUntil(25); n != 2 {
		t.Fatalf("DrainUntil fired %d, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %v, want last event time 20", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	// Draining past everything stops at the final event, not the bound.
	if n := e.DrainUntil(1000); n != 2 {
		t.Fatalf("second DrainUntil fired %d, want 2", n)
	}
	if e.Now() != 40 {
		t.Fatalf("clock at %v, want 40", e.Now())
	}
	if len(fired) != 4 {
		t.Fatalf("total fired %d, want 4", len(fired))
	}
}

func TestEngineZeroValueUsable(t *testing.T) {
	var e Engine
	fired := false
	e.At(5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("zero-value engine did not fire event")
	}
}

// A zero-value engine must behave identically to NewEngine() for the
// cancellation path too (pooled engines are re-created as zero values).
func TestEngineZeroValueCancellable(t *testing.T) {
	var e Engine
	fired := false
	id := e.After(5, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("zero-value engine could not cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired on zero-value engine")
	}
}

// Property: for any set of scheduled times, events fire in nondecreasing
// time order and the engine drains completely.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, u := range times {
			at := Time(u)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement firing.
func TestEngineCancelProperty(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		count := int(n%64) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		fired := map[int]bool{}
		ids := make([]EventID, count)
		for i := 0; i < count; i++ {
			i := i
			ids[i] = e.At(Time(rng.Intn(100)), func() { fired[i] = true })
		}
		cancelled := map[int]bool{}
		for i := 0; i < count; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				e.Cancel(ids[i])
			}
		}
		e.Run()
		for i := 0; i < count; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func() {})
		}
		e.Run()
	}
}
