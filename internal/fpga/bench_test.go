package fpga

import (
	"testing"

	"nimblock/internal/sim"
)

// BenchmarkReconfigurationPipeline measures filling and draining the CAP
// queue for a full board.
func BenchmarkReconfigurationPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		board, err := NewBoard(eng, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < board.NumSlots(); s++ {
			if err := board.Reconfigure(s, nil); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run()
		for s := 0; s < board.NumSlots(); s++ {
			if err := board.Release(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFreeSlots(b *testing.B) {
	eng := sim.NewEngine()
	board, _ := NewBoard(eng, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(board.FreeSlots()) != 10 {
			b.Fatal("bad free count")
		}
	}
}
