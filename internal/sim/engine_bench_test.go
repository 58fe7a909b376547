package sim

// Microbenchmarks isolating the event-queue swap: schedule/fire
// throughput, cancel-heavy timer churn, same-instant bursts, and the
// timer profile the hypervisor actually generates.

import "testing"

// BenchmarkScheduleFire measures raw schedule+fire throughput: a
// self-sustaining chain of events whose handles are dropped, the
// engine's common case.
func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(Duration(7), tick)
		}
	}
	eng.After(0, tick)
	eng.Run()
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkScheduleFireSpread schedules events up front across a wide
// time range, then drains — exercises cascading instead of the
// one-in-one-out steady state.
func BenchmarkScheduleFireSpread(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < b.N; i++ {
		// Spread pseudo-randomly over ~17 simulated minutes.
		eng.At(Time((i*2654435761)%1_000_000_000), fn)
	}
	b.ResetTimer()
	eng.Run()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkCancelHeavy models watchdog churn: every scheduled event gets
// a timer that is cancelled before it fires. The old heap paid an
// O(log n) heap.Remove per cancel; the wheel leaves a tombstone.
func BenchmarkCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	n := 0
	var tick func()
	var wd EventID
	tick = func() {
		n++
		if wd != 0 {
			eng.Cancel(wd)
		}
		if n < b.N {
			wd = eng.After(Seconds(3600), func() { b.Error("watchdog fired") })
			eng.After(Duration(5), tick)
		}
	}
	eng.After(0, tick)
	eng.Run()
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkSameInstantBurst drains bursts of events sharing one
// timestamp — the After(0) wake/arrival-batching pattern — which the
// wheel dispatches as a single sorted batch.
func BenchmarkSameInstantBurst(b *testing.B) {
	b.ReportAllocs()
	const burst = 64
	eng := NewEngine()
	fired := 0
	fn := func() { fired++ }
	rounds := b.N/burst + 1
	var kick func()
	r := 0
	kick = func() {
		r++
		for i := 0; i < burst; i++ {
			eng.After(0, fn)
		}
		if r < rounds {
			eng.After(Duration(100), kick)
		}
	}
	eng.After(0, kick)
	eng.Run()
	if fired < b.N {
		b.Fatalf("fired %d, want >= %d", fired, b.N)
	}
}

// BenchmarkMixedCancelFire interleaves events whose handles are dropped
// with timers that are kept and mostly fire (the itemDone/watchdog
// pairing), hitting both the fire and tombstone paths.
func BenchmarkMixedCancelFire(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n >= b.N {
			return
		}
		if n%4 == 0 {
			id := eng.After(Duration(3), func() { tick() })
			if n%8 == 0 {
				eng.Cancel(id)
				eng.After(Duration(3), tick)
			}
		} else {
			eng.After(Duration(2), tick)
		}
	}
	eng.After(0, tick)
	eng.Run()
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkTickChain models one busy board: a 400 ms self-rescheduling
// scheduling tick beside an item timer that re-arms every 37–81 ms.
// Each lands alone in a level-2 or level-3 bucket, which the engine
// fires without cascading it down the wheel.
func BenchmarkTickChain(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	n, k := 0, 0
	var tick, item func()
	tick = func() {
		if n++; n < b.N {
			eng.After(400*Millisecond, tick)
		}
	}
	item = func() {
		k++
		if n++; n < b.N {
			eng.After(Duration(37+k*17%45)*Millisecond, item)
		}
	}
	eng.After(0, tick)
	eng.After(0, item)
	eng.Run()
	if n < b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}
