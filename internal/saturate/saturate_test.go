package saturate

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/fpga"
	"nimblock/internal/hls"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

func board() fpga.Config { return fpga.DefaultConfig() }

func TestMakespanMonotoneInSlots(t *testing.T) {
	g := apps.MustGraph(apps.OpticalFlow)
	r := hls.Analyze(g)
	var prev sim.Duration
	for k := 1; k <= 5; k++ {
		m, err := Makespan(g, r, 5, k, board(), true)
		if err != nil {
			t.Fatal(err)
		}
		if m <= 0 {
			t.Fatalf("k=%d: non-positive makespan", k)
		}
		if k > 1 && m > prev {
			t.Fatalf("k=%d makespan %v worse than k=%d (%v)", k, m, k-1, prev)
		}
		prev = m
	}
}

func TestPipeliningImprovesMakespan(t *testing.T) {
	g := apps.MustGraph(apps.OpticalFlow)
	r := hls.Analyze(g)
	bulk, err := Makespan(g, r, 10, 4, board(), false)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Makespan(g, r, 10, 4, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	if pipe >= bulk {
		t.Fatalf("pipelined makespan %v not better than bulk %v", pipe, bulk)
	}
}

func TestSecondSlotGreatestBenefit(t *testing.T) {
	// The paper's observation: a second slot gives the greatest benefit
	// for pipelined apps because two batches execute in parallel.
	g := apps.MustGraph(apps.Rendering3D)
	r := hls.Analyze(g)
	res, err := Analyze(g, r, 10, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespans) < 2 {
		t.Fatalf("sweep too short: %v", res.Makespans)
	}
	gain12 := float64(res.Makespans[0] - res.Makespans[1])
	for k := 2; k < len(res.Makespans); k++ {
		gain := float64(res.Makespans[k-1] - res.Makespans[k])
		if gain > gain12 {
			t.Fatalf("slot %d->%d gain %.0f exceeds 1->2 gain %.0f", k, k+1, gain, gain12)
		}
	}
	if res.Goal < 2 {
		t.Fatalf("goal = %d, want >= 2 for a pipelinable batch-10 chain", res.Goal)
	}
}

func TestGoalBoundedByTasks(t *testing.T) {
	g := apps.MustGraph(apps.LeNet) // 3 tasks
	r := hls.Analyze(g)
	res, err := Analyze(g, r, 30, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespans) != 3 {
		t.Fatalf("sweep length %d, want 3 (capped at task count)", len(res.Makespans))
	}
	if res.Goal > 3 || res.MaxUseful > 3 {
		t.Fatalf("goal=%d maxUseful=%d exceed task count", res.Goal, res.MaxUseful)
	}
	if res.MaxUseful < res.Goal {
		t.Fatalf("maxUseful %d < goal %d", res.MaxUseful, res.Goal)
	}
}

func TestBatchOneChainDoesNotPipeline(t *testing.T) {
	// A chain with batch 1 has no cross-batch parallelism: extra slots
	// only prefetch reconfigurations, so the goal stays small.
	g := apps.MustGraph(apps.DigitRecognition) // 65 s items dwarf reconfig
	r := hls.Analyze(g)
	res, err := Analyze(g, r, 1, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Goal != 1 {
		t.Fatalf("goal = %d for batch-1 long chain, want 1", res.Goal)
	}
}

func TestGoalHelpers(t *testing.T) {
	ms := []sim.Duration{100, 50, 48, 47}
	if g := goalFrom(ms); g != 2 {
		t.Fatalf("goalFrom = %d, want 2", g)
	}
	if u := maxUsefulFrom(ms); u != 4 {
		t.Fatalf("maxUsefulFrom = %d, want 4", u)
	}
	flat := []sim.Duration{100, 100, 100}
	if g := goalFrom(flat); g != 1 {
		t.Fatalf("goalFrom(flat) = %d", g)
	}
	if u := maxUsefulFrom(flat); u != 1 {
		t.Fatalf("maxUsefulFrom(flat) = %d", u)
	}
	if g := goalFrom([]sim.Duration{100}); g != 1 {
		t.Fatalf("goalFrom(single) = %d", g)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	g := apps.MustGraph(apps.LeNet)
	r := hls.Analyze(g)
	if _, err := Makespan(g, r, 1, 0, board(), true); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad := board()
	bad.Slots = 0
	if _, err := Analyze(g, r, 1, bad, true); err == nil {
		t.Fatal("zero-slot board accepted")
	}
}

func TestAnalyzeCached(t *testing.T) {
	g := apps.MustGraph(apps.ImageCompression)
	r := hls.Analyze(g)
	a, err := AnalyzeCached(g, r, 4, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeCached(g, r, 4, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Goal != b.Goal || a.MaxUseful != b.MaxUseful || len(a.Makespans) != len(b.Makespans) {
		t.Fatalf("cached result differs: %+v vs %+v", a, b)
	}
	// Different pipelining flag is a different key.
	c, err := AnalyzeCached(g, r, 4, board(), false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespans[len(c.Makespans)-1] < a.Makespans[len(a.Makespans)-1] {
		t.Fatal("bulk analysis faster than pipelined; cache keys collided?")
	}
}

// Two structurally different graphs sharing a name must not return each
// other's cached results (regression: the cache used to key by name).
func TestAnalyzeCachedNameCollision(t *testing.T) {
	short := apps.Synthetic("collide", 2, 10*sim.Millisecond)
	long := apps.Synthetic("collide", 8, 900*sim.Millisecond)
	a, err := AnalyzeCached(short, hls.Analyze(short), 5, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeCached(long, hls.Analyze(long), 5, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Makespans) == len(b.Makespans) {
		t.Fatalf("colliding-name graphs returned same sweep length %d", len(a.Makespans))
	}
	if b.Makespans[0] <= a.Makespans[0] {
		t.Fatalf("8x900ms chain (%v) not slower than 2x10ms chain (%v): cache collision",
			b.Makespans[0], a.Makespans[0])
	}
}

func TestMakespanMatchesSingleSlotIntuition(t *testing.T) {
	// With one slot, the makespan is roughly tasks x reconfig + batch x work.
	g := apps.MustGraph(apps.Rendering3D)
	r := hls.Analyze(g)
	m, err := Makespan(g, r, 5, 1, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	var est sim.Duration
	for i := 0; i < g.NumTasks(); i++ {
		est += r.Task(i).Latency * 5
	}
	est += 3 * 80 * sim.Millisecond
	lo := est - est/10
	hi := est + est/10
	if m < lo || m > hi {
		t.Fatalf("1-slot makespan %v outside [%v, %v]", m, lo, hi)
	}
}

func TestActualMakespanCloseToEstimate(t *testing.T) {
	g := apps.MustGraph(apps.Rendering3D)
	r := hls.Analyze(g)
	est, err := Makespan(g, r, 5, 2, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	act, err := ActualMakespan(g, 5, 2, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	rel := float64(est-act) / float64(act)
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.15 {
		t.Fatalf("estimate %v vs actual %v: %.1f%% error", est, act, 100*rel)
	}
	if _, err := ActualMakespan(g, 1, 0, board(), true); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// everyTick hides the greedy policy's wake, so the board calls it at
// every tick.
type everyTick struct{ sched.Scheduler }

// TestGreedyWakeMatchesEveryTick checks the greedy policy's declared
// wake: on every catalog graph, batch size and slot count, in both
// processing modes, a board that skips its idle ticks reaches the same
// makespan as one that calls it at every tick.
func TestGreedyWakeMatchesEveryTick(t *testing.T) {
	for _, name := range apps.Names() {
		g := apps.MustGraph(name)
		for _, batch := range []int{1, 5, 30} {
			for k := 1; k <= 4; k++ {
				for _, pipe := range []bool{false, true} {
					skip, err := runAlone(g, batch, k, board(), &greedy{pipe: pipe})
					if err != nil {
						t.Fatal(err)
					}
					ref, err := runAlone(g, batch, k, board(), everyTick{&greedy{pipe: pipe}})
					if err != nil {
						t.Fatal(err)
					}
					if skip != ref {
						t.Fatalf("%s batch %d on %d slots, pipelining %v: makespan %v skipping ticks, %v at every tick",
							name, batch, k, pipe, skip, ref)
					}
				}
			}
		}
	}
}
