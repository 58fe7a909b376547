package sched

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/hls"
	"nimblock/internal/sim"
)

func benchApps(b *testing.B, n int) []*App {
	b.Helper()
	var out []*App
	names := apps.Names()
	for i := 0; i < n; i++ {
		g := apps.MustGraph(names[i%len(names)])
		a, err := NewApp(int64(i+1), g, hls.Analyze(g), 1+i%10, PriorityLevels[i%3], sim.Time(i))
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func BenchmarkTokenAccumulation(b *testing.B) {
	apps := benchApps(b, 20)
	AccrueTokens(0, apps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AccrueTokens(sim.Time(i+1)*sim.Time(sim.Millisecond), apps)
	}
}

func BenchmarkCandidates(b *testing.B) {
	apps := benchApps(b, 20)
	AccrueTokens(0, apps)
	AccrueTokens(sim.Time(sim.Second), apps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if CandidatesInto(nil, apps) == nil {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkNextWake asks TokenWake for the wake over 20 pending apps, one
// millisecond after they were first seen: every balance is still below
// the top level, so each app has a crossing ahead.
func BenchmarkNextWake(b *testing.B) {
	apps := benchApps(b, 20)
	AccrueTokens(0, apps)
	now := sim.Time(sim.Millisecond)
	AccrueTokens(now, apps)
	if TokenWake(now, apps) == sim.Never {
		b.Fatal("no crossing ahead")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TokenWake(now, apps)
	}
}

func BenchmarkConfigurableTasks(b *testing.B) {
	a := benchApps(b, 1)[0] // first name alphabetically: 3DRendering (a 3-task chain)
	a.MarkConfiguring(0, 0)
	a.MarkActive(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ConfigurableTasks()
	}
}

// BenchmarkNextReadyItem asks for the next item of a pipelined task
// halfway through a 30-item batch, its predecessors a few items ahead.
func BenchmarkNextReadyItem(b *testing.B) {
	g := apps.MustGraph(apps.AlexNet)
	a, err := NewApp(1, g, hls.Analyze(g), 30, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	const task, done = 1, 15
	for _, t := range append([]int{task}, g.Pred(task)...) {
		a.MarkConfiguring(t, t)
		a.MarkActive(t)
		n := done
		if t != task {
			n = done + 2
		}
		for i := 0; i < n; i++ {
			if err := a.MarkItemStarted(t, i); err != nil {
				b.Fatal(err)
			}
			a.MarkItemDone(t, i)
		}
	}
	if got := a.NextReadyItem(task, true); got != done {
		b.Fatalf("NextReadyItem = %d, want %d", got, done)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.NextReadyItem(task, true)
	}
}
