package schedtest_test

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/fpga"
	"nimblock/internal/hls"
	"nimblock/internal/sched"
	"nimblock/internal/sched/baseline"
	"nimblock/internal/sched/ckpt"
	"nimblock/internal/sched/energy"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sched/prema"
	"nimblock/internal/sched/rr"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
)

// BenchmarkSteadySchedule measures one scheduling decision per policy
// in steady state: 20 pending applications on a full 10-slot board. The
// measured call is a tick one millisecond after the last, followed by
// NextWake for policies that declare a wake, as the hypervisor makes
// them, and it takes no action: the board has no free slot, and a
// preempting policy already has its request pending.
func BenchmarkSteadySchedule(b *testing.B) {
	board := fpga.DefaultConfig()
	for _, p := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"Baseline", func() sched.Scheduler { return baseline.New() }},
		{"FCFS", func() sched.Scheduler { return fcfs.New() }},
		{"PREMA", func() sched.Scheduler { return prema.New() }},
		{"RR", func() sched.Scheduler { return rr.New() }},
		{"Nimblock", func() sched.Scheduler { return core.New(core.DefaultOptions(), board) }},
		{"NimblockCheckpoint", func() sched.Scheduler { return ckpt.New(ckpt.DefaultOptions(), board) }},
		{"NimblockEnergy", func() sched.Scheduler { return energy.New(board) }},
	} {
		b.Run(p.name, func(b *testing.B) {
			s := p.mk()
			w := schedtest.NewWorld(10)
			// The catalog cycles from AlexNet, whose 38 tasks fill the
			// board on their own under Baseline.
			names := apps.Names()
			for i := 0; i < 20; i++ {
				g := apps.MustGraph(names[(i+1)%len(names)])
				a, err := sched.NewApp(int64(i+1), g, hls.Analyze(g), 2+i%9, sched.PriorityLevels[i%3], sim.Time(i))
				if err != nil {
					b.Fatal(err)
				}
				w.AppList = append(w.AppList, a)
			}
			actions := func() int { return len(w.Reconfigs) + len(w.Preempts) }
			call := func() {
				w.Clock = w.Clock.Add(sim.Millisecond)
				s.Schedule(w, sched.ReasonTick)
				if wk, ok := s.(sched.Waker); ok {
					wk.NextWake(w)
				}
			}
			// Fill the board, landing every reconfiguration, until a call
			// with no free slot left takes no action. Then let an hour
			// pass, so every balance tops out and every rescue-priority
			// app turns urgent, and settle again: from there on time
			// changes no decision.
			settle := func() {
				for i := 0; ; i++ {
					if i == 1000 {
						b.Fatalf("board never settled: %d free slots", len(w.FreeSlots()))
					}
					before := actions()
					call()
					for _, o := range w.Occupants {
						if o.App.TaskState(o.Task) == sched.TaskConfiguring {
							if err := o.App.MarkActive(o.Task); err != nil {
								b.Fatal(err)
							}
						}
					}
					if actions() == before && len(w.FreeSlots()) == 0 {
						return
					}
				}
			}
			settle()
			w.Clock = w.Clock.Add(3600 * sim.Second)
			settle()
			before := actions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
			b.StopTimer()
			if n := actions() - before; n != 0 {
				b.Fatalf("steady calls took %d actions", n)
			}
		})
	}
}
