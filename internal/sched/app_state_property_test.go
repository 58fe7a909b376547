package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nimblock/internal/apps"
)

// scanConfigurableTasks is the configurable rule as a full scan in
// topological order, spelled out in full: a task is idle and
// unfinished, and no predecessor is idle and unfinished.
func scanConfigurableTasks(a *App) []int {
	out := []int{}
	for _, t := range a.Graph.Topo() {
		if a.TaskState(t) != TaskIdle || a.DoneCount(t) == a.Batch {
			continue
		}
		ready := true
		for _, p := range a.Graph.Pred(t) {
			if a.TaskState(p) == TaskIdle && a.DoneCount(p) < a.Batch {
				ready = false
			}
		}
		if ready {
			out = append(out, t)
		}
	}
	return out
}

// scanSlotsUsed counts the tasks holding a slot: configuring or active.
func scanSlotsUsed(a *App) int {
	n := 0
	for t := 0; t < a.Graph.NumTasks(); t++ {
		if s := a.TaskState(t); s == TaskConfiguring || s == TaskActive {
			n++
		}
	}
	return n
}

// checkAppState compares the app's incrementally kept scheduling state
// with the full scans.
func checkAppState(a *App) error {
	want := scanConfigurableTasks(a)
	if got := a.ConfigurableTasks(); !slices.Equal(got, want) {
		return fmt.Errorf("ConfigurableTasks %v, scan %v", got, want)
	}
	for t := 0; t < a.Graph.NumTasks(); t++ {
		if got := a.Configurable(t); got != slices.Contains(want, t) {
			return fmt.Errorf("Configurable(%d) = %v, scan %v", t, got, want)
		}
	}
	if got, want := a.SlotsUsed(), scanSlotsUsed(a); got != want {
		return fmt.Errorf("SlotsUsed %d, scan %d", got, want)
	}
	return nil
}

// Property: on every catalog graph at batches 1, 2, 7 and 30, after
// every legal lifecycle step, the cached configurable list and the slot
// counter equal the full scans.
func TestCachedAppStateMatchesScan(t *testing.T) {
	for _, name := range apps.Names() {
		g := apps.MustGraph(name)
		for _, batch := range []int{1, 2, 7, 30} {
			rng := rand.New(rand.NewSource(int64(batch)))
			a := mkApp(t, 1, name, batch, 3, 0)
			if err := checkAppState(a); err != nil {
				t.Fatalf("%s batch %d: new app: %v", name, batch, err)
			}
			limit := 100 * g.NumTasks() * batch
			for step := 0; !a.Done() && step < limit; step++ {
				op, task, err := randomStep(a, rng)
				if err != nil {
					t.Fatalf("%s batch %d step %d %s: %v", name, batch, step, op, err)
				}
				if err := checkAppState(a); err != nil {
					t.Fatalf("%s batch %d step %d after %s of task %d: %v", name, batch, step, op, task, err)
				}
			}
			if !a.Done() {
				t.Fatalf("%s batch %d: not done after %d steps", name, batch, limit)
			}
		}
	}
}

// FuzzAppState drives an app over a catalog graph through an arbitrary
// sequence of Mark* calls, legal or not, and requires the cached
// configurable list and slot counter to equal the full scans after
// every call. Each pair of op bytes picks a task and a transition. The
// seed corpus is under testdata/fuzz/FuzzAppState.
func FuzzAppState(f *testing.F) {
	names := apps.Names()
	f.Fuzz(func(t *testing.T, graph, batch uint8, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		g := apps.MustGraph(names[int(graph)%len(names)])
		a := mkApp(t, 1, g.Name(), 1+int(batch)%30, 3, 0)
		for k := 0; k+1 < len(ops); k += 2 {
			task := int(ops[k]) % g.NumTasks()
			var op string
			switch ops[k+1] % 8 {
			case 0:
				op = "configure"
				a.MarkConfiguring(task, task)
			case 1:
				op = "activate"
				a.MarkActive(task)
			case 2:
				op = "config-failed"
				a.MarkConfigFailed(task)
			case 3:
				op = "preempt"
				a.MarkPreempted(task)
			case 4:
				op = "checkpoint-preempt"
				a.MarkCheckpointPreempted(task)
			case 5:
				op = "kill"
				a.MarkKilled(task)
			case 6:
				op = "item-start"
				a.MarkItemStarted(task, a.DoneCount(task))
			case 7:
				op = "item-done"
				a.MarkItemDone(task, a.InflightItem(task))
			}
			if err := checkAppState(a); err != nil {
				t.Fatalf("op %d (%s of task %d): %v", k/2, op, task, err)
			}
		}
	})
}
