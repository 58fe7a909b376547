package hv

import (
	"math"
	"testing"

	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// freshCase is one running stretch for the fresh-bound tests: an item of
// the given nominal latency with preemption points, resumed at base +
// done nominal progress, slowed by factor, whose last snapshot captured
// last.
type freshCase struct {
	nominal, base, done, last sim.Duration
	factor                    float64
	defaultPoints             int
	points                    []float64
	start                     sim.Time
}

// stretch builds the hypervisor and slot state freshBound reads.
func (c freshCase) stretch(t testing.TB) (*Hypervisor, *slotRuntime) {
	t.Helper()
	b := taskgraph.NewBuilder("fresh")
	b.AddTask("kernel", c.nominal)
	if len(c.points) > 0 {
		b.SetCheckpoints(0, c.points...)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := &Hypervisor{cfg: Config{Checkpoint: CheckpointConfig{Enabled: true, DefaultPoints: c.defaultPoints}}}
	rt := &slotRuntime{
		app: &sched.App{Graph: g}, curItem: 0,
		base: c.base, doneNominal: c.done, factor: c.factor,
		itemStart: c.start, last: ckptRecord{progress: c.last}, hasLast: true,
	}
	rt.stretch = stretchDur(max(c.nominal-c.base-c.done, 0), c.factor)
	return h, rt
}

// firstFresh is the first instant of the stretch at which a save passes
// a new preemption point, found by bisection over the monotone check,
// or one microsecond past the stretch end if no instant up to it does.
func firstFresh(h *Hypervisor, rt *slotRuntime) sim.Time {
	fresh := func(t sim.Time) bool { return h.snapAt(rt, t) > rt.last.progress }
	lo, hi := rt.itemStart, rt.itemStart.Add(rt.stretch)
	if !fresh(hi) {
		return hi + 1
	}
	if fresh(lo) {
		return lo
	}
	for hi-lo > 1 { // fresh(hi), !fresh(lo)
		mid := lo + (hi-lo)/2
		if fresh(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// FuzzFreshBound checks that the fresh bound is sound: the exact check
// a periodic save runs is false at every sampled instant of the stretch
// before the bound. It draws the nominal latency, the resumed progress,
// the slowdown (non-integer scales and speed-ups included), the last
// snapshot, and either uniform default points or an explicit list.
// Its seed corpus lives in testdata/fuzz/FuzzFreshBound.
func FuzzFreshBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, nominalUs uint32, baseFrac, doneFrac, lastFrac uint16, factor float64, defaultPoints uint8, pointBits uint32, startUs uint32) {
		c := freshCase{
			nominal:       1 + sim.Duration(nominalUs%1_000_000_000),
			factor:        1,
			defaultPoints: int(defaultPoints % 24),
			start:         sim.Time(startUs),
		}
		c.base = sim.Duration(float64(c.nominal) * float64(baseFrac) / math.MaxUint16)
		c.done = sim.Duration(float64(c.nominal-c.base) * float64(doneFrac) / math.MaxUint16)
		c.last = sim.Duration(float64(c.nominal) * float64(lastFrac) / math.MaxUint16)
		if f := math.Abs(factor); f >= 0.05 && f <= 50 {
			c.factor = f
		}
		// Bit i adds an irregular point just past i/33.
		for i := 0; i < 32; i++ {
			if pointBits&(1<<i) != 0 {
				c.points = append(c.points, (float64(i)+0.37)/33)
			}
		}
		h, rt := c.stretch(t)
		bound := h.freshBound(rt)
		start, end := rt.itemStart, rt.itemStart.Add(rt.stretch)
		if bound < start || bound > end+1 {
			t.Fatalf("%+v: bound %v outside the stretch [%v, %v]", c, bound, start, end)
		}
		hi := bound - 1
		if hi < start {
			return // the bound skips nothing
		}
		check := func(at sim.Time) {
			if snap := h.snapAt(rt, at); snap > c.last {
				t.Fatalf("%+v: a save at %v passes point %v > last %v, before the bound %v", c, at, snap, c.last, bound)
			}
		}
		check(hi)
		check(start)
		for i := sim.Time(1); i < 64; i++ {
			check(start + (hi-start)*i/64)
			check(max(hi-i, start))
		}
	})
}

// TestFreshBoundIsTight checks that the bound is useful as well as
// sound: over typical shapes (uniform and explicit points, unit and
// fractional slowdowns, fresh and resumed stretches), it lies at most
// a few microseconds before the first instant a save passes a new
// point, or past the stretch end when no instant of it does.
func TestFreshBoundIsTight(t *testing.T) {
	n := 0
	for _, nominal := range []sim.Duration{1_000, 123_457, 65 * sim.Second} {
		for _, factor := range []float64{1, 3, 1.7, 0.85, 4.2831} {
			for _, pts := range [][]float64{nil, {0.25, 0.5, 0.75}, {0.1, 0.333, 0.9}} {
				for k := 0; k <= 10; k++ {
					c := freshCase{nominal: nominal, factor: factor, defaultPoints: 9, points: pts, start: 12_345}
					// Resume at the k-th tenth of the item with the last
					// snapshot at the point before it, as a save leaves it.
					c.done = nominal * sim.Duration(k) / 10
					h, rt := c.stretch(t)
					c.last = h.snapAt(rt, rt.itemStart)
					rt.last.progress = c.last
					bound, first := h.freshBound(rt), firstFresh(h, rt)
					if first <= rt.itemStart.Add(rt.stretch) {
						n++
					}
					if bound > first || first-bound > sim.Time(freshSlack)+2 {
						t.Errorf("%+v: bound %v, first fresh instant %v", c, bound, first)
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no stretch had a point ahead")
	}
}
