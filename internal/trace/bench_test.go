package trace

import (
	"testing"

	"nimblock/internal/sim"
)

func benchLog(events int) *Log {
	l := New()
	for i := 0; i < events; i++ {
		l.Observe(Event{
			At:    sim.Time(i) * sim.Time(sim.Millisecond),
			Kind:  Kind(i % int(KindFault+1)),
			App:   "app",
			AppID: int64(i % 8),
			Task:  i % 4,
			Slot:  i % 10,
			Item:  i % 3,
		})
	}
	return l
}

func BenchmarkSummarize(b *testing.B) {
	l := benchLog(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Summarize()
	}
}

func BenchmarkGanttRender(b *testing.B) {
	l := benchLog(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Gantt(10, sim.Time(10*sim.Second), 120)
	}
}

func BenchmarkJSONExport(b *testing.B) {
	l := benchLog(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}
