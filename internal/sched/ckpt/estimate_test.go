package ckpt

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/fpga"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
)

// TestEstimateMemoIsPerApp checks the single-slot estimate memo against
// the formula over every catalog graph at several batches: each app's
// memo holds its own estimate, on the first call and on every later one.
func TestEstimateMemoIsPerApp(t *testing.T) {
	board := fpga.DefaultConfig()
	s := New(core.DefaultOptions(), board)
	var pending []*sched.App
	for i, name := range apps.Names() {
		for _, batch := range []int{1, 7, 30} {
			pending = append(pending, schedtest.NewApp(t, int64(len(pending)+1), apps.MustGraph(name), batch, 9, sim.Time(i)))
		}
	}
	for round := 0; round < 2; round++ {
		for _, a := range pending {
			var work sim.Duration
			for task := 0; task < a.Graph.NumTasks(); task++ {
				work += a.Report.Task(task).Latency
			}
			want := sim.Duration(a.Graph.NumTasks())*board.ReconfigTime() + sim.Duration(a.Batch)*work
			if got := s.estimate(a); got != want {
				t.Fatalf("round %d: %s batch %d: estimate %v, want %v", round, a.Name, a.Batch, got, want)
			}
		}
	}
}
