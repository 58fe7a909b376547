package hv_test

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// BenchmarkHypervisorRun measures one contended run end to end under
// each policy: simulated time is fixed, so ns/op is pure harness
// overhead. policy-calls/event is the number of Schedule calls per
// simulated event; tick skipping lowers it without changing the events.
func BenchmarkHypervisorRun(b *testing.B) {
	board := hv.DefaultConfig().Board
	for _, pol := range skipPolicies {
		b.Run(pol.name, func(b *testing.B) {
			b.ReportAllocs()
			var calls, events int64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				p := &callCounter{Scheduler: pol.mk(board)}
				h, err := hv.New(eng, hv.DefaultConfig(), p)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range mixedWorkloadBench() {
					if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := h.Run(); err != nil {
					b.Fatal(err)
				}
				calls += p.calls
				events += eng.Fired()
			}
			b.ReportMetric(float64(calls)/float64(events), "policy-calls/event")
		})
	}
}

// callCounter counts a policy's Schedule calls. It forwards the policy's
// wake, so the board skips exactly the ticks it skips for the bare
// policy.
type callCounter struct {
	sched.Scheduler
	calls int64
}

func (c *callCounter) Schedule(w sched.World, why sched.Reason) {
	c.calls++
	c.Scheduler.Schedule(w, why)
}

func (c *callCounter) NextWake(w sched.World) sim.Time {
	return c.Scheduler.(sched.Waker).NextWake(w)
}

// BenchmarkCheckpointedRun is BenchmarkHypervisorRun with the attempt
// machinery BenchmarkHypervisorRun never exercises: a 50 ms periodic
// checkpoint streaming through the CAP and a watchdog on every item.
func BenchmarkCheckpointedRun(b *testing.B) {
	cfg := hv.DefaultConfig()
	cfg.WatchdogFactor = 3
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range mixedWorkloadBench() {
			if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := h.Run(); err != nil {
			b.Fatal(err)
		}
		if h.Recovery().CheckpointSaves == 0 {
			b.Fatal("no checkpoint saved")
		}
		events += eng.Fired()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func mixedWorkloadBench() []submission {
	return []submission{
		{apps.ImageCompression, 5, 3, 0},
		{apps.LeNet, 5, 1, 200 * sim.Time(sim.Millisecond)},
		{apps.OpticalFlow, 5, 9, 400 * sim.Time(sim.Millisecond)},
		{apps.Rendering3D, 8, 3, 600 * sim.Time(sim.Millisecond)},
	}
}

// BenchmarkSingleSlotLatency measures the analytic deadline helper.
func BenchmarkSingleSlotLatency(b *testing.B) {
	eng := sim.NewEngine()
	h, err := hv.New(eng, hv.DefaultConfig(), core.New(core.DefaultOptions(), hv.DefaultConfig().Board))
	if err != nil {
		b.Fatal(err)
	}
	g := apps.MustGraph(apps.AlexNet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.SingleSlotLatency(g, 10) <= 0 {
			b.Fatal("bad latency")
		}
	}
}

// BenchmarkOutstandingEstimate measures the load signal a dispatcher
// reads per board, on a board holding 16 pending applications mid-run.
// The sum is kept running, so the read costs the same at any depth.
func BenchmarkOutstandingEstimate(b *testing.B) {
	eng := sim.NewEngine()
	h, err := hv.New(eng, hv.DefaultConfig(), core.New(core.DefaultOptions(), hv.DefaultConfig().Board))
	if err != nil {
		b.Fatal(err)
	}
	names := apps.Names()
	for i := 0; i < 16; i++ {
		at := sim.Time(i) * 50 * sim.Time(sim.Millisecond)
		if err := h.Submit(apps.MustGraph(names[i%len(names)]), 10+i%10, 3, at); err != nil {
			b.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(sim.Second))
	if n := h.PendingCount(); n != 16 {
		b.Fatalf("pending = %d mid-run, want 16", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.OutstandingEstimate() <= 0 {
			b.Fatal("no outstanding work")
		}
	}
}

// BenchmarkPeriodicSave is the layer row of the periodic checkpoint
// timer. One item runs for 10,000 s under a 50 ms save period on a
// one-slot board whose scheduling ticks are an hour apart, so nearly
// every event is a save timer that finds no new preemption point (nine
// per item are not: saves/op counts them). ns/op is the cost of one
// event on that path; it allocates nothing.
func BenchmarkPeriodicSave(b *testing.B) {
	bld := taskgraph.NewBuilder("long")
	bld.AddTask("kernel", 10_000*sim.Second)
	g := bld.MustBuild()
	cfg := hv.DefaultConfig()
	cfg.Board.Slots = 1
	cfg.SchedInterval = 3600 * sim.Second
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, fcfs.New())
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Submit(g, 1000, 3, 0); err != nil {
		b.Fatal(err)
	}
	eng.RunUntil(sim.Time(sim.Second))
	saves := h.Recovery().CheckpointSaves
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.Step() {
			b.Fatal("the board drained")
		}
	}
	b.StopTimer()
	if err := h.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(h.Recovery().CheckpointSaves-saves)/float64(b.N), "saves/op")
}
