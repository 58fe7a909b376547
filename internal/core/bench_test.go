package core

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/hls"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// BenchmarkNimblockSchedule measures one steady-state scheduling
// decision: 20 pending applications on a full 10-slot board, so every
// call accrues tokens, reallocates all candidates and requests (or
// finds pending) a preemption.
func BenchmarkNimblockSchedule(b *testing.B) {
	s := New(DefaultOptions(), board())
	w := newFakeWorld(10)
	names := apps.Names()
	for i := 0; i < 20; i++ {
		g := apps.MustGraph(names[i%len(names)])
		a, err := sched.NewApp(int64(i+1), g, hls.Analyze(g), 2+i%9, sched.PriorityLevels[i%3], sim.Time(i))
		if err != nil {
			b.Fatal(err)
		}
		w.apps = append(w.apps, a)
	}
	for i := 0; len(w.FreeSlots()) > 0; i++ {
		if i == 100 {
			b.Fatal("board never filled")
		}
		s.Schedule(w, sched.ReasonTick)
		w.now = w.now.Add(sim.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.now = w.now.Add(sim.Millisecond)
		s.Schedule(w, sched.ReasonTick)
	}
}
