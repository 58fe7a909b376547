package sched

import (
	"math/rand"
	"testing"

	"nimblock/internal/apps"
)

// scanNextReadyItem is the item-readiness rule as a full scan over an
// explicit per-item done bitmap: the first item of task t that is
// neither done nor in flight, if every predecessor has finished it
// (pipelining) or its whole batch (bulk).
func scanNextReadyItem(a *App, done [][]bool, t int, pipelining bool) int {
	if !pipelining {
		for _, p := range a.Graph.Pred(t) {
			for _, d := range done[p] {
				if !d {
					return -1
				}
			}
		}
	}
	for i := 0; i < a.Batch; i++ {
		if done[t][i] || a.InflightItem(t) == i {
			continue
		}
		if pipelining {
			for _, p := range a.Graph.Pred(t) {
				if !done[p][i] {
					return -1
				}
			}
		}
		return i
	}
	return -1
}

// Property: on every catalog graph, over random lifecycles with kills
// and both kinds of preemption, the done items of each task are exactly
// the prefix [0, DoneCount) of a bitmap kept beside the app, and
// NextReadyItem agrees with the full scan over that bitmap in both
// processing modes.
func TestDonePrefixMatchesBitmap(t *testing.T) {
	for _, name := range apps.Names() {
		g := apps.MustGraph(name)
		n := g.NumTasks()
		for _, batch := range []int{1, 2, 7, 30} {
			rng := rand.New(rand.NewSource(int64(batch)))
			a := mkApp(t, 1, name, batch, 3, 0)
			done := make([][]bool, n)
			for task := range done {
				done[task] = make([]bool, batch)
			}
			inflight := make([]int, n)
			limit := 100 * n * batch
			for step := 0; !a.Done() && step < limit; step++ {
				for u := range inflight {
					inflight[u] = a.InflightItem(u)
				}
				op, task, err := randomStep(a, rng)
				if err != nil {
					t.Fatalf("%s batch %d step %d %s: %v", name, batch, step, op, err)
				}
				switch op {
				case "item-done":
					done[task][inflight[task]] = true
				case "item-start":
					if i := a.InflightItem(task); done[task][i] {
						t.Fatalf("%s batch %d step %d: started done item %d of task %d", name, batch, step, i, task)
					}
				}
				for u := 0; u < n; u++ {
					for i := 0; i < batch; i++ {
						if got := a.ItemDone(u, i); got != done[u][i] || got != (i < a.DoneCount(u)) {
							t.Fatalf("%s batch %d step %d after %s: task %d item %d done=%v, bitmap %v, done count %d",
								name, batch, step, op, u, i, got, done[u][i], a.DoneCount(u))
						}
					}
					for _, pipe := range []bool{true, false} {
						if got, want := a.NextReadyItem(u, pipe), scanNextReadyItem(a, done, u, pipe); got != want {
							t.Fatalf("%s batch %d step %d after %s: task %d pipelining=%v next item %d, scan %d",
								name, batch, step, op, u, pipe, got, want)
						}
					}
				}
			}
			if !a.Done() {
				t.Fatalf("%s batch %d: not done after %d steps", name, batch, limit)
			}
		}
	}
}
