package hv

import (
	"strings"
	"testing"

	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// A buffer is freed when its last consumer releases it; releasing it
// again is an error, and a buffer never allocated has nothing to release.
func TestBufferLedgerReleases(t *testing.T) {
	h, r, other, counters := newForkLedger(t)
	for _, task := range []int{0, 0, 1} { // the second allocation of t0 reuses the first
		if err := h.allocOutputBuffer(r, task); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.allocOutputBuffer(other, 2); err != nil {
		t.Fatal(err)
	}
	counters(3, "allocated")
	if r.refs[0] != 2 || r.refs[1] != 1 {
		t.Fatalf("ledger %v: t0 has two consumers, the sink t1 holds its own", r.refs)
	}
	if err := h.releaseBuffer(r, 2); err != nil {
		t.Fatalf("release of a buffer never allocated: %v", err)
	}
	if err := h.releaseBuffer(r, 0); err != nil {
		t.Fatal(err)
	}
	counters(3, "one consumer left")
	if err := h.releaseBuffer(r, 0); err != nil {
		t.Fatal(err)
	}
	counters(2, "freed")
	if err := h.allocOutputBuffer(r, 0); err != nil || r.refs[0] != bufReleased {
		t.Fatalf("re-activation after release: %v, ledger %v", err, r.refs)
	}
	err := h.releaseBuffer(r, 0)
	if err == nil || !strings.Contains(err.Error(), "release of dead buffer fork#1 task0.out") {
		t.Fatalf("double release: %v", err)
	}
	counters(2, "double release")
}

// forget frees only the leaving app's live buffers, whatever their
// remaining consumers.
func TestBufferLedgerForgetsOwner(t *testing.T) {
	h, r, other, counters := newForkLedger(t)
	for _, task := range []int{0, 1} {
		if err := h.allocOutputBuffer(r, task); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.allocOutputBuffer(other, 2); err != nil {
		t.Fatal(err)
	}
	counters(3, "allocated")
	if n := h.forget(r.app); n != 2 {
		t.Fatalf("forget freed %d buffers, want t0's and t1's", n)
	}
	counters(1, "forgotten")
	if other.refs[2] != 1 {
		t.Fatalf("forget of another app touched ledger %v", other.refs)
	}
	if n := h.forget(other.app); n != 1 {
		t.Fatalf("forget freed %d buffers, want t2's", n)
	}
	counters(0, "all forgotten")
}

// newForkLedger returns a board holding two submissions of a fork, t0
// feeding t1 and t2, with no buffer allocated, and a check that the
// board's counters read live buffers.
func newForkLedger(t *testing.T) (h *Hypervisor, r, other *appRecord, counters func(live int, when string)) {
	t.Helper()
	h, err := New(sim.NewEngine(), DefaultConfig(), fcfs.New())
	if err != nil {
		t.Fatal(err)
	}
	b := taskgraph.NewBuilder("fork")
	for _, name := range []string{"t0", "t1", "t2"} {
		b.AddTask(name, sim.Second)
	}
	g := b.AddEdge(0, 1).AddEdge(0, 2).MustBuild()
	r = submitRecord(t, h, g)
	other = submitRecord(t, h, g)
	bytes := h.cfg.BufferBytes
	counters = func(live int, when string) {
		t.Helper()
		if h.bufLive != live || h.bufUsed != int64(live)*bytes {
			t.Fatalf("%s: %d buffers, %d bytes; want %d buffers", when, h.bufLive, h.bufUsed, live)
		}
	}
	return h, r, other, counters
}

// submitRecord submits g to h and returns the submission's record.
func submitRecord(t *testing.T, h *Hypervisor, g *taskgraph.Graph) *appRecord {
	t.Helper()
	id, err := h.SubmitID(g, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h.records[id]
}
