// Package hls models the performance estimates Nimblock parses from
// high-level synthesis reports.
//
// On the real system, Vivado HLS emits a latency estimate per task, and the
// hypervisor sums estimates over the task-graph to obtain an application
// latency estimate used for token accumulation (performance degradation)
// and for PREMA's shortest-candidate-first selection. Estimates are not
// ground truth: HLS reports deviate from measured latency. We model that
// with a deterministic per-task skew derived from a hash of the task
// identity, so estimates are reproducible but never exactly the truth.
package hls

import (
	"hash/fnv"

	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// MaxSkew bounds the relative estimation error: estimates lie within
// [1-MaxSkew, 1+MaxSkew] of the true latency.
const MaxSkew = 0.10

// skewFor returns a deterministic multiplier in [1-MaxSkew, 1+MaxSkew]
// for the given task identity.
func skewFor(app string, task int, name string) float64 {
	h := fnv.New64a()
	h.Write([]byte(app))
	h.Write([]byte{byte(task), byte(task >> 8)})
	h.Write([]byte(name))
	// Map the hash onto [-1, 1) then scale.
	u := float64(h.Sum64()%(1<<20)) / float64(1<<20) // [0,1)
	return 1 + MaxSkew*(2*u-1)
}

// Estimate is the HLS report for one task.
type Estimate struct {
	// Latency is the estimated time to process one batch item.
	Latency sim.Duration
}

// Report carries the per-task estimates for one application, mirroring the
// performance section of the bitstream header.
type Report struct {
	app       string
	perTask   []Estimate
	taskTotal sim.Duration
}

// Analyze produces the HLS report for a task-graph.
func Analyze(g *taskgraph.Graph) *Report {
	r := &Report{app: g.Name(), perTask: make([]Estimate, g.NumTasks())}
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(i)
		est := sim.Duration(float64(t.Latency) * skewFor(g.Name(), i, t.Name))
		if est <= 0 {
			est = 1
		}
		r.perTask[i] = Estimate{Latency: est}
		r.taskTotal += est
	}
	return r
}

// Task returns the estimate for task i.
func (r *Report) Task(i int) Estimate { return r.perTask[i] }

// NumTasks reports how many tasks were analyzed.
func (r *Report) NumTasks() int { return len(r.perTask) }

// AppLatency is the application latency estimate: the sum of task latency
// estimates over the task-graph (the paper's definition), i.e. the
// estimated time for one batch item with no parallelism.
func (r *Report) AppLatency() sim.Duration { return r.taskTotal }
