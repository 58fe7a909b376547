package sched

import (
	"testing"

	"nimblock/internal/hls"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// chainApp builds a 3-task chain app with the given batch.
func chainApp(t *testing.T, batch int) *App {
	t.Helper()
	b := taskgraph.NewBuilder("chain")
	x := b.AddTask("a", 10*sim.Millisecond)
	y := b.AddTask("b", 10*sim.Millisecond)
	z := b.AddTask("c", 10*sim.Millisecond)
	b.Chain(x, y, z)
	g := b.MustBuild()
	a, err := NewApp(1, g, hls.Analyze(g), batch, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func diamondApp(t *testing.T, batch int) *App {
	t.Helper()
	b := taskgraph.NewBuilder("diamond")
	s := b.AddTask("s", 10*sim.Millisecond)
	l := b.AddTask("l", 10*sim.Millisecond)
	r := b.AddTask("r", 10*sim.Millisecond)
	k := b.AddTask("k", 10*sim.Millisecond)
	b.AddEdge(s, l).AddEdge(s, r).AddEdge(l, k).AddEdge(r, k)
	g := b.MustBuild()
	a, err := NewApp(2, g, hls.Analyze(g), batch, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAppValidation(t *testing.T) {
	g := taskgraph.NewBuilder("g")
	g.AddTask("t", 1)
	graph := g.MustBuild()
	if _, err := NewApp(1, nil, nil, 1, 1, 0); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewApp(1, graph, hls.Analyze(graph), 0, 1, 0); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := NewApp(1, graph, hls.Analyze(graph), 1, 0, 0); err == nil {
		t.Error("zero priority accepted")
	}
}

func TestConfigurableGate(t *testing.T) {
	a := chainApp(t, 2)
	if !a.Configurable(0) {
		t.Fatal("source task should be configurable")
	}
	if a.Configurable(1) || a.Configurable(2) {
		t.Fatal("tasks with idle predecessors should not be configurable")
	}
	a.MarkConfiguring(0, 0)
	if a.Configurable(0) {
		t.Fatal("configuring task should not be configurable again")
	}
	if !a.Configurable(1) {
		t.Fatal("task 1 should be configurable once task 0 is scheduled")
	}
	if a.Configurable(2) {
		t.Fatal("task 2 should wait until task 1 is scheduled")
	}
	got := a.ConfigurableTasks()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("ConfigurableTasks = %v, want [1]", got)
	}
}

func TestLifecycleAndItemFlow(t *testing.T) {
	a := chainApp(t, 2)
	if err := a.MarkConfiguring(0, 3); err != nil {
		t.Fatal(err)
	}
	if a.TaskSlot(0) != 3 || a.TaskState(0) != TaskConfiguring {
		t.Fatal("configuring state not recorded")
	}
	if err := a.MarkActive(0); err != nil {
		t.Fatal(err)
	}
	if got := a.NextReadyItem(0, true); got != 0 {
		t.Fatalf("first ready item = %d, want 0", got)
	}
	if err := a.MarkItemStarted(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.NextReadyItem(0, true); got != 1 {
		t.Fatalf("ready item while item 0 in flight = %d, want 1", got)
	}
	done, err := a.MarkItemDone(0, 0)
	if err != nil || done {
		t.Fatalf("done=%v err=%v after first item", done, err)
	}
	a.MarkItemStarted(0, 1)
	done, err = a.MarkItemDone(0, 1)
	if err != nil || !done {
		t.Fatalf("done=%v err=%v after final item", done, err)
	}
	if a.TaskState(0) != TaskDone || a.TaskSlot(0) != -1 {
		t.Fatal("task not marked done")
	}
	if a.SlotsUsed() != 0 {
		t.Fatalf("SlotsUsed = %d after completion", a.SlotsUsed())
	}
}

// TestMarkItemStartedInOrder checks that a task may start only the
// first item past its done prefix: a done item, a skipped-ahead item or
// an out-of-range item is rejected and leaves nothing in flight.
func TestMarkItemStartedInOrder(t *testing.T) {
	a := chainApp(t, 3)
	a.MarkConfiguring(0, 0)
	a.MarkActive(0)
	for _, i := range []int{-1, 1, 2, 3} {
		if err := a.MarkItemStarted(0, i); err == nil {
			t.Fatalf("item %d started before item 0", i)
		}
	}
	if err := a.MarkItemStarted(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MarkItemDone(0, 0); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if err := a.MarkItemStarted(0, i); err == nil {
			t.Fatalf("item %d started with item 1 next", i)
		}
		if got := a.InflightItem(0); got != -1 {
			t.Fatalf("rejected start left item %d in flight", got)
		}
	}
	if err := a.MarkItemStarted(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPipeliningReadiness(t *testing.T) {
	a := chainApp(t, 3)
	a.MarkConfiguring(0, 0)
	a.MarkActive(0)
	a.MarkConfiguring(1, 1)
	a.MarkActive(1)

	// No predecessor items done: downstream not ready either way.
	if a.NextReadyItem(1, true) != -1 || a.NextReadyItem(1, false) != -1 {
		t.Fatal("task 1 ready before any predecessor item")
	}
	a.MarkItemStarted(0, 0)
	a.MarkItemDone(0, 0)
	// Pipelining: item 0 now ready downstream. Bulk: still blocked.
	if got := a.NextReadyItem(1, true); got != 0 {
		t.Fatalf("pipelined ready item = %d, want 0", got)
	}
	if got := a.NextReadyItem(1, false); got != -1 {
		t.Fatalf("bulk mode leaked item %d before batch completion", got)
	}
	a.MarkItemStarted(0, 1)
	a.MarkItemDone(0, 1)
	a.MarkItemStarted(0, 2)
	a.MarkItemDone(0, 2)
	if got := a.NextReadyItem(1, false); got != 0 {
		t.Fatalf("bulk mode ready item = %d after batch completion", got)
	}
}

func TestPreemptionAtBoundaryOnly(t *testing.T) {
	a := chainApp(t, 2)
	a.MarkConfiguring(0, 0)
	a.MarkActive(0)
	a.MarkItemStarted(0, 0)
	if err := a.MarkPreempted(0); err == nil {
		t.Fatal("preemption mid-item accepted")
	}
	a.MarkItemDone(0, 0)
	if err := a.MarkPreempted(0); err != nil {
		t.Fatal(err)
	}
	if a.TaskState(0) != TaskIdle || a.TaskSlot(0) != -1 {
		t.Fatal("preempted task not idle")
	}
	if a.DoneCount(0) != 1 {
		t.Fatal("preemption lost batch progress")
	}
	// Re-configure and finish from saved progress.
	if !a.Configurable(0) {
		t.Fatal("preempted task should be configurable")
	}
	a.MarkConfiguring(0, 5)
	a.MarkActive(0)
	if got := a.NextReadyItem(0, true); got != 1 {
		t.Fatalf("resumed ready item = %d, want 1", got)
	}
}

func TestDiamondReadinessJoin(t *testing.T) {
	a := diamondApp(t, 2)
	a.MarkConfiguring(0, 0)
	a.MarkActive(0)
	a.MarkItemStarted(0, 0)
	a.MarkItemDone(0, 0)
	a.MarkConfiguring(1, 1)
	a.MarkActive(1)
	a.MarkConfiguring(2, 2)
	a.MarkActive(2)
	a.MarkConfiguring(3, 3)
	a.MarkActive(3)
	a.MarkItemStarted(1, 0)
	a.MarkItemDone(1, 0)
	// Sink needs BOTH branches' item 0.
	if got := a.NextReadyItem(3, true); got != -1 {
		t.Fatalf("join task ready with one branch only (item %d)", got)
	}
	a.MarkItemStarted(2, 0)
	a.MarkItemDone(2, 0)
	if got := a.NextReadyItem(3, true); got != 0 {
		t.Fatalf("join task ready item = %d, want 0", got)
	}
}

func TestRemainingEstimateShrinks(t *testing.T) {
	a := chainApp(t, 2)
	before := a.RemainingEstimate()
	a.MarkConfiguring(0, 0)
	a.MarkActive(0)
	a.MarkItemStarted(0, 0)
	a.MarkItemDone(0, 0)
	after := a.RemainingEstimate()
	if after >= before {
		t.Fatalf("remaining estimate did not shrink: %v -> %v", before, after)
	}
}

func TestRetire(t *testing.T) {
	a := chainApp(t, 1)
	if err := a.Retire(); err == nil {
		t.Fatal("retired incomplete app")
	}
	for task := 0; task < 3; task++ {
		a.MarkConfiguring(task, task)
		a.MarkActive(task)
		a.MarkItemStarted(task, 0)
		a.MarkItemDone(task, 0)
	}
	if !a.Done() {
		t.Fatal("app not done after all items")
	}
	if err := a.Retire(); err != nil {
		t.Fatal(err)
	}
	if err := a.Retire(); err == nil {
		t.Fatal("double retire accepted")
	}
}

func TestOverConsumption(t *testing.T) {
	a := chainApp(t, 2)
	a.SlotsAllocated = 1
	a.MarkConfiguring(0, 0)
	a.MarkActive(0)
	a.MarkConfiguring(1, 1)
	if got := a.OverConsumption(); got != 1 {
		t.Fatalf("OverConsumption = %d, want 1", got)
	}
}

func TestReasonAndStateStrings(t *testing.T) {
	for _, r := range []Reason{ReasonTick, ReasonArrival, ReasonSlotFree, ReasonAppDone, ReasonReconfigDone, Reason(99)} {
		if r.String() == "" {
			t.Fatalf("empty string for reason %d", int(r))
		}
	}
	for _, s := range []TaskState{TaskIdle, TaskConfiguring, TaskActive, TaskDone, TaskState(99)} {
		if s.String() == "" {
			t.Fatalf("empty string for state %d", int(s))
		}
	}
}

func TestMarkConfigFailed(t *testing.T) {
	a := chainApp(t, 2)
	if err := a.MarkConfigFailed(0); err == nil {
		t.Fatal("config-fail of idle task accepted")
	}
	a.MarkConfiguring(0, 3)
	if err := a.MarkConfigFailed(0); err != nil {
		t.Fatal(err)
	}
	if a.TaskState(0) != TaskIdle || a.TaskSlot(0) != -1 {
		t.Fatal("failed task not returned to idle")
	}
	if !a.Configurable(0) {
		t.Fatal("failed task should be reconfigurable")
	}
}

func TestMarkCheckpointPreempted(t *testing.T) {
	a := chainApp(t, 3)
	if _, err := a.MarkCheckpointPreempted(0); err == nil {
		t.Fatal("checkpoint of idle task accepted")
	}
	a.MarkConfiguring(0, 0)
	a.MarkActive(0)
	a.MarkItemStarted(0, 0)
	item, err := a.MarkCheckpointPreempted(0)
	if err != nil {
		t.Fatal(err)
	}
	if item != 0 {
		t.Fatalf("aborted item %d, want 0", item)
	}
	if a.TaskState(0) != TaskIdle || a.InflightItem(0) != -1 {
		t.Fatal("checkpointed task left in bad state")
	}
	// The aborted item is still pending and resumes next.
	a.MarkConfiguring(0, 1)
	a.MarkActive(0)
	if got := a.NextReadyItem(0, true); got != 0 {
		t.Fatalf("resumed item = %d, want 0", got)
	}
	// Checkpoint at a boundary reports -1.
	b := chainApp(t, 1)
	b.MarkConfiguring(0, 0)
	b.MarkActive(0)
	item, err = b.MarkCheckpointPreempted(0)
	if err != nil || item != -1 {
		t.Fatalf("boundary checkpoint: item=%d err=%v", item, err)
	}
}
