// Package taskgraph models applications as directed acyclic graphs of
// slot-sized tasks, as required by the Nimblock compilation flow.
//
// Each node is a task — a portion of the application with an input and an
// output that fits in one reconfigurable slot. Edges are data dependencies:
// a task consumes buffers produced by its predecessors. The hypervisor and
// every scheduler reason about applications exclusively through this
// representation.
package taskgraph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"nimblock/internal/sim"
)

// Task describes one slot-sized unit of an application.
type Task struct {
	// Name is a human-readable label ("conv1", "pool2", ...).
	Name string
	// Latency is the ground-truth time to process one batch item.
	// Schedulers never see this directly; they see the HLS estimate.
	Latency sim.Duration
	// StateBytes is the live context that must move through the CAP to
	// checkpoint or restore this task mid-item (BRAM contents, register
	// file, pipeline state). Zero means "use the hypervisor default".
	StateBytes int64
	// Checkpoints lists the fractions of one item's work, strictly
	// increasing within (0,1), at which the kernel exposes a consistent
	// snapshot (a preemption point: no in-flight partial writes). Empty
	// means the hypervisor may assume uniformly spaced default points.
	// Callers must not modify the slice.
	Checkpoints []float64
}

// Graph is an immutable task DAG. Build one with a Builder; the
// constructor validates acyclicity and edge sanity.
type Graph struct {
	name  string
	tasks []Task
	succ  [][]int // adjacency: succ[i] lists tasks depending on i
	pred  [][]int // reverse adjacency
	topo  []int   // one valid topological order
	rank  []int   // rank[task] = position of task in topo
	depth []int   // longest path (in edges) from any source to each node
	fp    uint64  // structural fingerprint, computed once in Build
}

// Builder incrementally constructs a Graph.
type Builder struct {
	name  string
	tasks []Task
	edges [][2]int
}

// NewBuilder returns a Builder for an application graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddTask appends a task and returns its index.
func (b *Builder) AddTask(name string, latency sim.Duration) int {
	b.tasks = append(b.tasks, Task{Name: name, Latency: latency})
	return len(b.tasks) - 1
}

// SetTaskState declares the checkpointable state size of task id.
func (b *Builder) SetTaskState(id int, bytes int64) *Builder {
	b.tasks[id].StateBytes = bytes
	return b
}

// SetCheckpoints declares the preemption points of task id as fractions
// of one item's work, strictly increasing within (0,1).
func (b *Builder) SetCheckpoints(id int, fracs ...float64) *Builder {
	b.tasks[id].Checkpoints = append([]float64(nil), fracs...)
	return b
}

// AddEdge records a dependency: to consumes the output of from.
func (b *Builder) AddEdge(from, to int) *Builder {
	b.edges = append(b.edges, [2]int{from, to})
	return b
}

// Chain adds edges linking the given tasks in sequence.
func (b *Builder) Chain(ids ...int) *Builder {
	for i := 1; i < len(ids); i++ {
		b.AddEdge(ids[i-1], ids[i])
	}
	return b
}

// Build validates the graph and freezes it.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.tasks)
	if n == 0 {
		return nil, fmt.Errorf("taskgraph %q: graph has no tasks", b.name)
	}
	for i, t := range b.tasks {
		if t.Latency <= 0 {
			return nil, fmt.Errorf("taskgraph %q: task %d (%s) has non-positive latency %v", b.name, i, t.Name, t.Latency)
		}
		if t.StateBytes < 0 {
			return nil, fmt.Errorf("taskgraph %q: task %d (%s) has negative state size %d", b.name, i, t.Name, t.StateBytes)
		}
		prev := 0.0
		for _, p := range t.Checkpoints {
			if p <= prev || p >= 1 {
				return nil, fmt.Errorf("taskgraph %q: task %d (%s) checkpoints %v must be strictly increasing within (0,1)", b.name, i, t.Name, t.Checkpoints)
			}
			prev = p
		}
	}
	g := &Graph{
		name:  b.name,
		tasks: append([]Task(nil), b.tasks...),
		succ:  make([][]int, n),
		pred:  make([][]int, n),
	}
	seen := map[[2]int]bool{}
	for _, e := range b.edges {
		from, to := e[0], e[1]
		if from < 0 || from >= n || to < 0 || to >= n {
			return nil, fmt.Errorf("taskgraph %q: edge %d->%d out of range [0,%d)", b.name, from, to, n)
		}
		if from == to {
			return nil, fmt.Errorf("taskgraph %q: self-loop on task %d", b.name, from)
		}
		if seen[e] {
			return nil, fmt.Errorf("taskgraph %q: duplicate edge %d->%d", b.name, from, to)
		}
		seen[e] = true
		g.succ[from] = append(g.succ[from], to)
		g.pred[to] = append(g.pred[to], from)
	}
	topo, err := topoSort(g.succ, g.pred)
	if err != nil {
		return nil, fmt.Errorf("taskgraph %q: %w", b.name, err)
	}
	g.topo = topo
	g.rank = make([]int, len(topo))
	for pos, v := range topo {
		g.rank[v] = pos
	}
	g.depth = computeDepths(g.pred, topo)
	g.fp = fingerprint(g)
	return g, nil
}

// fingerprint hashes the complete graph structure — name, task names,
// ground-truth latencies, and every edge — with FNV-1a. Two graphs share
// a fingerprint iff they are structurally identical, so it is a safe
// cache key where the name alone is not (anyone can build a second graph
// under an existing name).
func fingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(g.name))
	writeInt(int64(len(g.tasks)))
	for _, t := range g.tasks {
		h.Write([]byte(t.Name))
		writeInt(int64(t.Latency))
		writeInt(t.StateBytes)
		writeInt(int64(len(t.Checkpoints)))
		for _, p := range t.Checkpoints {
			writeInt(int64(math.Float64bits(p)))
		}
	}
	var edges [][2]int
	for from, succs := range g.succ {
		for _, to := range succs {
			edges = append(edges, [2]int{from, to})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		writeInt(int64(e[0]))
		writeInt(int64(e[1]))
	}
	return h.Sum64()
}

// MustBuild is Build that panics on error; for statically known graphs.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// topoSort runs Kahn's algorithm. Ties are broken by node index so the
// order is deterministic.
func topoSort(succ, pred [][]int) ([]int, error) {
	n := len(succ)
	indeg := make([]int, n)
	for i := range pred {
		indeg[i] = len(pred[i])
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph contains a cycle")
	}
	return order, nil
}

// computeDepths returns, for each node, the length in edges of the longest
// path from any source node.
func computeDepths(pred [][]int, topo []int) []int {
	depth := make([]int, len(pred))
	for _, v := range topo {
		d := 0
		for _, p := range pred[v] {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[v] = d
	}
	return depth
}

// Name reports the application name this graph belongs to.
func (g *Graph) Name() string { return g.name }

// Fingerprint reports a structural hash of the graph (name, tasks,
// latencies, edges). Structurally identical graphs share a fingerprint
// regardless of build order; use it to key caches that must not confuse
// distinct graphs sharing a name.
func (g *Graph) Fingerprint() uint64 { return g.fp }

// NumTasks reports the number of tasks (nodes).
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges reports the number of dependency edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// Task returns the task at index i.
func (g *Graph) Task(i int) Task { return g.tasks[i] }

// Succ returns the successors of task i. The slice must not be modified.
func (g *Graph) Succ(i int) []int { return g.succ[i] }

// Pred returns the predecessors of task i. The slice must not be modified.
func (g *Graph) Pred(i int) []int { return g.pred[i] }

// Topo returns a valid topological order. The slice must not be modified.
func (g *Graph) Topo() []int { return g.topo }

// Depth returns the longest-path depth (in edges) of task i from a source.
func (g *Graph) Depth(i int) int { return g.depth[i] }

// TopoRank returns the position of each task in the topological order:
// rank[task] = index in Topo(). Later rank means later in execution order,
// which is what the preemption algorithm uses to pick a victim task. The
// slice is computed once at build time and must not be modified.
func (g *Graph) TopoRank() []int { return g.rank }

// Sources returns tasks with no predecessors.
func (g *Graph) Sources() []int {
	var s []int
	for i := range g.tasks {
		if len(g.pred[i]) == 0 {
			s = append(s, i)
		}
	}
	return s
}

// Sinks returns tasks with no successors.
func (g *Graph) Sinks() []int {
	var s []int
	for i := range g.tasks {
		if len(g.succ[i]) == 0 {
			s = append(s, i)
		}
	}
	return s
}

// TotalWork reports the sum of all task latencies — the per-item compute
// time if every task ran sequentially.
func (g *Graph) TotalWork() sim.Duration {
	var total sim.Duration
	for _, t := range g.tasks {
		total += t.Latency
	}
	return total
}

// CriticalPath reports the largest sum of task latencies along any
// source-to-sink path: the lower bound on per-item latency with unlimited
// slots and free reconfiguration.
func (g *Graph) CriticalPath() sim.Duration {
	best := make([]sim.Duration, len(g.tasks))
	var max sim.Duration
	for _, v := range g.topo {
		var in sim.Duration
		for _, p := range g.pred[v] {
			if best[p] > in {
				in = best[p]
			}
		}
		best[v] = in + g.tasks[v].Latency
		if best[v] > max {
			max = best[v]
		}
	}
	return max
}

// MaxWidth reports the maximum number of tasks sharing the same depth —
// a structural upper bound on task-level parallelism within one batch item.
func (g *Graph) MaxWidth() int {
	counts := map[int]int{}
	max := 0
	for i := range g.tasks {
		counts[g.depth[i]]++
		if counts[g.depth[i]] > max {
			max = counts[g.depth[i]]
		}
	}
	return max
}

// SnapFraction returns the largest preemption point of task i that is
// <= frac — the latest consistent snapshot reachable after completing a
// frac share of one item. Tasks that declare no Checkpoints fall back to
// defaultPoints uniformly spaced interior points (k/(defaultPoints+1));
// the result is 0 when no point has been passed yet, meaning the only
// consistent state is "not started".
func (g *Graph) SnapFraction(i int, frac float64, defaultPoints int) float64 {
	if frac <= 0 {
		return 0
	}
	pts := g.tasks[i].Checkpoints
	if len(pts) == 0 {
		if defaultPoints <= 0 {
			return 0
		}
		step := 1.0 / float64(defaultPoints+1)
		k := int(frac / step)
		if k > defaultPoints {
			k = defaultPoints
		}
		return float64(k) * step
	}
	best := 0.0
	for _, p := range pts {
		if p > frac {
			break
		}
		best = p
	}
	return best
}

// NextPoint returns the first preemption point of task i, as a fraction
// of one item, whose snapshot captures more nominal work than last: the
// first point p, declared or default as in SnapFraction, with
// sim.Duration(p × Latency) > last. It reports false when no point is
// left.
func (g *Graph) NextPoint(i int, last sim.Duration, defaultPoints int) (float64, bool) {
	t := &g.tasks[i]
	passes := func(p float64) bool { return sim.Duration(p*float64(t.Latency)) > last }
	if len(t.Checkpoints) > 0 {
		for _, p := range t.Checkpoints {
			if passes(p) {
				return p, true
			}
		}
		return 0, false
	}
	step := 1.0 / float64(defaultPoints+1)
	for k := 1; k <= defaultPoints; k++ {
		if p := float64(k) * step; passes(p) {
			return p, true
		}
	}
	return 0, false
}

// Validate re-checks internal invariants; it is used by property tests.
func (g *Graph) Validate() error {
	if len(g.topo) != len(g.tasks) {
		return fmt.Errorf("topo order has %d entries for %d tasks", len(g.topo), len(g.tasks))
	}
	pos := g.TopoRank()
	for v, succs := range g.succ {
		for _, w := range succs {
			if pos[v] >= pos[w] {
				return fmt.Errorf("edge %d->%d violates topological order", v, w)
			}
		}
	}
	return nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s{tasks=%d edges=%d width=%d}", g.name, g.NumTasks(), g.NumEdges(), g.MaxWidth())
}
