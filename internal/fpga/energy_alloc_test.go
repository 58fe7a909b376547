package fpga

import (
	"testing"

	"nimblock/internal/sim"
)

// Energy accounting rides every slot transition whether or not a power
// model is configured, so it must be free: accruing the occupancy and
// usable integrals is pure counter arithmetic with zero allocations.
// This is the energy counterpart of hv's TestDisabledObserverZeroAlloc.
func TestEnergyAccountingZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	b, err := NewBoard(eng, DefaultConfig()) // no power model configured
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		b.accrue()
		_ = b.OccupiedSlotTime()
		_ = b.UsableSlotTime()
		_ = b.Energy()
	}); n != 0 {
		t.Fatalf("energy accounting allocates %v per transition, want 0", n)
	}
}

// The CAP path allocates nothing once its queue has grown: the in-flight
// stream lives on the Board, its completion is bound once, and the queue
// pops by copy-down so appends reuse its capacity. One run queues a
// state transfer and a reconfiguration behind another reconfiguration,
// drains them, and releases the slots again.
func TestCAPZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	b, err := NewBoard(eng, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	onDone := func(err error) {
		if err != nil {
			t.Error(err)
		}
		done++
	}
	if err := b.Reconfigure(0, onDone); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	round := func() {
		if err := b.Reconfigure(1, onDone); err != nil {
			t.Fatal(err)
		}
		if err := b.TransferState(0, 1<<20, onDone); err != nil {
			t.Fatal(err)
		}
		if err := b.Reconfigure(2, onDone); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if err := b.Release(1); err != nil {
			t.Fatal(err)
		}
		if err := b.Release(2); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the queue and the engine's event slab
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("CAP round allocates %v times, want 0", n)
	}
	if want := 1 + 3*202; done != want {
		t.Fatalf("%d completions, want %d", done, want)
	}
}
