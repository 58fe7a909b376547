package bitstream

import (
	"testing"

	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

func chainGraph(t *testing.T, tasks int) *taskgraph.Graph {
	t.Helper()
	b := taskgraph.NewBuilder("app")
	ids := make([]int, tasks)
	for i := range ids {
		ids[i] = b.AddTask("t", 10*sim.Millisecond)
	}
	b.Chain(ids...)
	return b.MustBuild()
}

func TestRegisterGeneratesPerSlotImages(t *testing.T) {
	g := chainGraph(t, 3)
	s := NewStore()
	if err := s.Register(g, 10); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 30 {
		t.Fatalf("Count = %d, want 3 tasks x 10 slots = 30", s.Count())
	}
	im, err := s.Lookup("app", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if h := im.Header; h != (Header{App: "app", Task: 2, Slot: 7}) {
		t.Fatalf("header = %+v", h)
	}
}

func TestRegisterIdempotentBytes(t *testing.T) {
	g := chainGraph(t, 2)
	s := NewStore()
	if err := s.Register(g, 4); err != nil {
		t.Fatal(err)
	}
	b1 := s.Bytes()
	if err := s.Register(g, 4); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != b1 {
		t.Fatalf("re-register changed byte accounting: %d -> %d", b1, s.Bytes())
	}
	want := int64(8 * (SlotImageBytes + HeaderBytes))
	if b1 != want {
		t.Fatalf("Bytes = %d, want %d", b1, want)
	}
}

func TestRegisterValidation(t *testing.T) {
	g := chainGraph(t, 2)
	s := NewStore()
	if err := s.Register(g, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
}

func TestLookupMissing(t *testing.T) {
	s := NewStore()
	if _, err := s.Lookup("ghost", 0, 0); err == nil {
		t.Fatal("lookup of missing image succeeded")
	}
}

func TestLoadTime(t *testing.T) {
	im := &Image{Bytes: 1_000_000}
	if got := im.LoadTime(1_000_000); got != sim.Second {
		t.Fatalf("LoadTime = %v, want 1s", got)
	}
	if got := im.LoadTime(0); got != 0 {
		t.Fatalf("LoadTime with zero bandwidth = %v, want 0", got)
	}
}

func TestRelocatableRegistration(t *testing.T) {
	g := chainGraph(t, 3)
	s := NewStore()
	s.RegisterRelocatable(g)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want one image per task", s.Count())
	}
	// Any slot resolves to the relocatable image.
	for slot := 0; slot < 10; slot++ {
		im, err := s.Lookup("app", 1, slot)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if im.Header.Slot != RelocatableSlot {
			t.Fatalf("slot %d resolved to %+v", slot, im.Header)
		}
	}
}

func TestRelocationStorageSavings(t *testing.T) {
	g := chainGraph(t, 4)
	perSlot, reloc := NewStore(), NewStore()
	if err := perSlot.Register(g, 10); err != nil {
		t.Fatal(err)
	}
	reloc.RegisterRelocatable(g)
	if perSlot.Bytes() != 10*reloc.Bytes() {
		t.Fatalf("savings factor: %d vs %d bytes", perSlot.Bytes(), reloc.Bytes())
	}
}

func TestPerSlotImagePreferredOverRelocatable(t *testing.T) {
	g := chainGraph(t, 1)
	s := NewStore()
	s.RegisterRelocatable(g)
	if err := s.Register(g, 2); err != nil {
		t.Fatal(err)
	}
	im, err := s.Lookup("app", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if im.Header.Slot != 1 {
		t.Fatalf("lookup preferred %+v over the per-slot image", im.Header)
	}
}
