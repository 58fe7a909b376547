package hls

import (
	"math"
	"testing"
	"testing/quick"

	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

func testGraph(t *testing.T) *taskgraph.Graph {
	t.Helper()
	b := taskgraph.NewBuilder("app")
	a := b.AddTask("a", 100*sim.Millisecond)
	c := b.AddTask("b", 200*sim.Millisecond)
	b.Chain(a, c)
	return b.MustBuild()
}

func TestEstimatesWithinSkew(t *testing.T) {
	g := testGraph(t)
	r := Analyze(g)
	if r.NumTasks() != 2 {
		t.Fatalf("NumTasks = %d", r.NumTasks())
	}
	for i := 0; i < g.NumTasks(); i++ {
		truth := float64(g.Task(i).Latency)
		est := float64(r.Task(i).Latency)
		rel := math.Abs(est-truth) / truth
		if rel > MaxSkew+1e-9 {
			t.Fatalf("task %d estimate off by %.3f (> %v)", i, rel, MaxSkew)
		}
	}
}

func TestEstimatesDeterministic(t *testing.T) {
	g := testGraph(t)
	r1, r2 := Analyze(g), Analyze(g)
	for i := 0; i < g.NumTasks(); i++ {
		if r1.Task(i) != r2.Task(i) {
			t.Fatalf("estimate for task %d not deterministic", i)
		}
	}
}

func TestAppLatencyIsSumOfTasks(t *testing.T) {
	g := testGraph(t)
	r := Analyze(g)
	var sum sim.Duration
	for i := 0; i < r.NumTasks(); i++ {
		sum += r.Task(i).Latency
	}
	if r.AppLatency() != sum {
		t.Fatalf("AppLatency = %v, want %v", r.AppLatency(), sum)
	}
}

// Property: estimates are always positive and within the documented skew,
// for arbitrary task latencies.
func TestSkewBoundsProperty(t *testing.T) {
	f := func(lat uint32, nameSeed uint8) bool {
		l := sim.Duration(lat%10_000_000) + 1
		b := taskgraph.NewBuilder("p")
		b.AddTask(string(rune('a'+nameSeed%26)), l)
		g := b.MustBuild()
		r := Analyze(g)
		est := r.Task(0).Latency
		if est <= 0 {
			return false
		}
		rel := math.Abs(float64(est)-float64(l)) / float64(l)
		// Allow 1 microsecond of truncation slop on tiny latencies.
		return rel <= MaxSkew+1.0/float64(l)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentTasksGetDifferentSkew(t *testing.T) {
	b := taskgraph.NewBuilder("skewdiff")
	for i := 0; i < 16; i++ {
		b.AddTask("t", 1_000_000)
	}
	g := b.MustBuild()
	r := Analyze(g)
	distinct := map[sim.Duration]bool{}
	for i := 0; i < r.NumTasks(); i++ {
		distinct[r.Task(i).Latency] = true
	}
	if len(distinct) < 2 {
		t.Fatal("all tasks received identical estimates; skew is not per-task")
	}
}
