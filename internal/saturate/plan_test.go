package saturate

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/hls"
	"nimblock/internal/sched"
)

func planApp(t *testing.T, name string, batch int) *sched.App {
	t.Helper()
	g := apps.MustGraph(name)
	a, err := sched.NewApp(1, g, hls.Analyze(g), batch, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPlannerMatchesAnalysis(t *testing.T) {
	p := NewPlanner(board(), true)
	for _, slots := range []int{10, 4, 1} {
		a := planApp(t, apps.OpticalFlow, 5)
		b := board()
		b.Slots = slots
		r, err := AnalyzeCached(a.Graph, a.Report, a.Batch, b, true)
		if err != nil {
			t.Fatal(err)
		}
		want := sched.Plan{Slots: slots, Goal: r.Goal, MaxUseful: max(r.MaxUseful, r.Goal)}
		if got := p.Plan(a, slots); got != want || a.Plan != want {
			t.Fatalf("%d slots: plan %+v, memo %+v, want %+v", slots, got, a.Plan, want)
		}
	}
}

// The app's memo answers while the usable slot count matches it, and
// only then: a different count re-plans and replaces the memo.
func TestPlannerUsesMemoOnlyAtItsSize(t *testing.T) {
	p := NewPlanner(board(), true)
	a := planApp(t, apps.LeNet, 5)
	sentinel := sched.Plan{Slots: 10, Goal: 99, MaxUseful: 99}
	a.Plan = sentinel
	if got := p.Plan(a, 10); got != sentinel {
		t.Fatalf("plan at the memo's size = %+v, want the memo %+v", got, sentinel)
	}
	got := p.Plan(a, 6)
	if got.Slots != 6 || got.Goal > 6 || got.MaxUseful > 6 || a.Plan != got {
		t.Fatalf("plan at 6 slots = %+v (memo %+v), want a fresh plan within 6 slots", got, a.Plan)
	}
}

func TestPlannerFallback(t *testing.T) {
	a := planApp(t, apps.LeNet, 2)
	got := NewPlanner(board(), false).Plan(a, 0)
	want := sched.Plan{Slots: 0, Goal: 2, MaxUseful: a.Graph.NumTasks()}
	if got != want {
		t.Fatalf("fallback plan = %+v, want %+v", got, want)
	}
}
