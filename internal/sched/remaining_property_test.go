package sched

import (
	"math/rand"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/sim"
)

// remainingFromScratch is the differential oracle for the running
// RemainingEstimate: the HLS estimate of every item not yet done.
func remainingFromScratch(a *App) sim.Duration {
	var total sim.Duration
	for t := 0; t < a.Graph.NumTasks(); t++ {
		total += a.Report.Task(t).Latency * sim.Duration(a.Batch-a.DoneCount(t))
	}
	return total
}

// randomStep applies one random legal lifecycle transition to a random
// task, the way a hypervisor would: configure, activate or fail a
// configuration, start and finish items, and kill, checkpoint-preempt
// or batch-preempt an active task. It names the transition applied, or
// "" when the drawn task had none, and the task it drew.
func randomStep(a *App, rng *rand.Rand) (op string, t int, err error) {
	t = rng.Intn(a.Graph.NumTasks())
	switch a.TaskState(t) {
	case TaskIdle:
		if a.Configurable(t) {
			return "configure", t, a.MarkConfiguring(t, t)
		}
	case TaskConfiguring:
		if rng.Intn(10) == 0 {
			return "config-failed", t, a.MarkConfigFailed(t)
		}
		return "activate", t, a.MarkActive(t)
	case TaskActive:
		r := rng.Intn(20)
		switch {
		case r == 0:
			_, err := a.MarkKilled(t)
			return "kill", t, err
		case r == 1:
			_, err := a.MarkCheckpointPreempted(t)
			return "checkpoint-preempt", t, err
		case r == 2 && a.InflightItem(t) < 0:
			return "preempt", t, a.MarkPreempted(t)
		case a.InflightItem(t) >= 0:
			_, err := a.MarkItemDone(t, a.InflightItem(t))
			return "item-done", t, err
		default:
			if i := a.NextReadyItem(t, true); i >= 0 {
				return "item-start", t, a.MarkItemStarted(t, i)
			}
		}
	}
	return "", t, nil
}

// Property: on every catalog graph and batch size, after every legal
// lifecycle step — including kills and preemptions that lose or keep
// in-flight work — the running RemainingEstimate equals the sum over
// tasks of estimate x items not yet done.
func TestRemainingEstimateMatchesFromScratch(t *testing.T) {
	for _, name := range apps.Names() {
		g := apps.MustGraph(name)
		for batch := 1; batch <= 30; batch++ {
			rng := rand.New(rand.NewSource(int64(batch)))
			a := mkApp(t, 1, name, batch, 3, 0)
			if got, want := a.RemainingEstimate(), remainingFromScratch(a); got != want {
				t.Fatalf("%s batch %d: new app estimate %v, want %v", name, batch, got, want)
			}
			limit := 100 * g.NumTasks() * batch
			for step := 0; !a.Done() && step < limit; step++ {
				op, _, err := randomStep(a, rng)
				if err != nil {
					t.Fatalf("%s batch %d step %d %s: %v", name, batch, step, op, err)
				}
				if got, want := a.RemainingEstimate(), remainingFromScratch(a); got != want {
					t.Fatalf("%s batch %d step %d after %s: estimate %v, from scratch %v", name, batch, step, op, got, want)
				}
			}
			if !a.Done() {
				t.Fatalf("%s batch %d: not done after %d steps", name, batch, limit)
			}
			if got := a.RemainingEstimate(); got != 0 {
				t.Fatalf("%s batch %d: done app estimates %v left", name, batch, got)
			}
		}
	}
}
