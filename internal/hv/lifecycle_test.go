package hv_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/hv"
	"nimblock/internal/obs"
	"nimblock/internal/sched"
	"nimblock/internal/sched/ckpt"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
	"nimblock/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/lifecycle.golden")

// This file drives every item-attempt path of the hypervisor at once —
// execution faults, watchdog kills, quarantine, slot death, periodic and
// on-demand checkpoints, restores of lost or corrupt snapshots, board
// degrade, hedge aborts, freeze and evacuation, and migration onto a
// second board — and pins the outcome.

// Checkpoint modes of the lifecycle matrix.
const (
	modeOff      = iota // no checkpointing, core Nimblock
	modePeriodic        // 50 ms periodic saves, core Nimblock
	modeOnDemand        // on-demand captures only, NimblockCheckpoint
	numModes
)

var modeNames = [numModes]string{"off", "periodic", "on-demand"}

// lifecycleCase is one scenario: a generated workload on a faulty board
// with scheduled board-level operations. Zero instants disable the
// operation.
type lifecycleCase struct {
	seed       int64
	mode       int
	plan       string
	slowAt     sim.Time
	slowUntil  sim.Time
	slowFactor float64
	abortAt    sim.Time
	abortIdx   int
	freezeAt   sim.Time // evacuation follows one second later
	// policy names one of skipPolicies; empty selects the mode's own
	// (core Nimblock, or NimblockCheckpoint for on-demand).
	policy string
	// everyTick, when non-nil, runs the policy under the every-tick
	// reference (see skip_test.go) instead of letting the board skip
	// ticks, and counts the ticks its strict check covered.
	everyTick *int
	// strictSaves, when non-nil, runs the boards under the strict
	// periodic-save reference (see save_skip_test.go) and counts the
	// saves its exact check covered.
	strictSaves *int
	// ledgerSteps, when non-nil, drives the boards one event at a time,
	// checks the buffer counters against a scan of every record after
	// each (see ledger_test.go), and counts the events checked.
	ledgerSteps *int
	// hostChecks, when non-nil, checks every record's hosting slots
	// against a scan of the slots at every traced event (see
	// hosts_test.go) and counts the events checked.
	hostChecks *int
	// pool overrides lifecyclePool.
	pool []string
}

// lifecycleOutcome is what a scenario produced.
type lifecycleOutcome struct {
	digest    string // hash of both boards' traces, results, stats, and the evacuees
	submitted int
	results   int // retired on the first board
	evacuees  int
	aborted   int
	migrated  int // evacuees that retired on the second board
	spent     sim.Duration
	captures  int64  // on-demand checkpoint captures on both boards
	err       string // a board's Collect error; the rest of the run is skipped
}

// lifecyclePool leaves out the two applications whose single items take
// seconds, so a run stays in the tens of milliseconds of host time.
// lifecycleSlots is a small board, so arrivals contend for slots and
// the policy preempts running items.
const lifecycleSlots = 6

var lifecyclePool = []string{"LeNet", "ImageCompression", "3DRendering", "OpticalFlow"}

// newLifecycleCase derives a scenario from a seed and a fault mix: bit
// i of faultBits enables the i-th of hang, slow, dead, crc, lost, and
// corrupt; the instants are in milliseconds.
func newLifecycleCase(seed int64, mode int, faultBits uint8, slowMs, abortMs, freezeMs uint16) lifecycleCase {
	rng := rand.New(rand.NewSource(seed))
	lines := []string{fmt.Sprintf("seed %d", seed)}
	kinds := []string{
		"hang prob=0.04",
		"slow prob=0.15 factor=3",
		fmt.Sprintf("dead slot=%d at=%dms", rng.Intn(lifecycleSlots), 200+rng.Intn(3000)),
		fmt.Sprintf("crc prob=0.05\ncrc prob=0.8 slot=%d", rng.Intn(lifecycleSlots)),
		"lost prob=0.25",
		"corrupt prob=0.25",
	}
	for i, k := range kinds {
		if faultBits&(1<<i) != 0 {
			lines = append(lines, k)
		}
	}
	c := lifecycleCase{
		seed:     seed,
		mode:     mode % numModes,
		plan:     strings.Join(lines, "\n"),
		abortIdx: rng.Intn(8),
	}
	if slowMs > 0 {
		c.slowAt = sim.Time(sim.Duration(slowMs) * sim.Millisecond)
		c.slowUntil = c.slowAt.Add(sim.Duration(500+rng.Intn(2000)) * sim.Millisecond)
		c.slowFactor = 1.5 + 3*rng.Float64()
	}
	if abortMs > 0 {
		c.abortAt = sim.Time(sim.Duration(abortMs) * sim.Millisecond)
	}
	if freezeMs > 0 {
		c.freezeAt = sim.Time(sim.Duration(freezeMs) * sim.Millisecond)
	}
	return c
}

// goldenLifecycleCase is the fixed scenario of one golden cell: every
// fault kind, with the instants drawn from the seed.
func goldenLifecycleCase(seed int64, mode int) lifecycleCase {
	rng := rand.New(rand.NewSource(seed * 7919))
	return newLifecycleCase(seed, mode, 0x3f,
		uint16(100+rng.Intn(1500)), uint16(300+rng.Intn(2500)), uint16(1500+rng.Intn(3000)))
}

func lifecycleConfig(c lifecycleCase) hv.Config {
	cfg := hv.DefaultConfig()
	cfg.Horizon = sim.Time(3600 * sim.Second)
	cfg.Board.NewInjector = faults.MustParsePlan(c.plan).MustFactory()
	cfg.WatchdogFactor = 3
	cfg.WatchdogGrace = 20 * sim.Millisecond
	cfg.QuarantineThreshold = 3
	cfg.Board.Slots = lifecycleSlots
	switch c.mode {
	case modePeriodic:
		cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond, StateBytes: 2 << 20}
	case modeOnDemand:
		cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, StateBytes: 2 << 20}
	}
	return cfg
}

func lifecyclePolicy(t *testing.T, c lifecycleCase, cfg hv.Config) sched.Scheduler {
	if c.policy != "" {
		i := slices.IndexFunc(skipPolicies, func(p skipPolicy) bool { return p.name == c.policy })
		if i < 0 {
			t.Fatalf("unknown policy %q", c.policy)
		}
		return skipPolicies[i].mk(cfg.Board)
	}
	if c.mode == modeOnDemand {
		return ckpt.New(core.DefaultOptions(), cfg.Board)
	}
	return core.New(core.DefaultOptions(), cfg.Board)
}

// lifecycleBoard is one hypervisor with its trace stream hashed and its
// invariants checked live.
type lifecycleBoard struct {
	eng   *sim.Engine
	h     *hv.Hypervisor
	chk   *schedtest.Checker
	jsonl *obs.JSONL
	buf   bytes.Buffer
	kinds obs.Counting

	// The hook-completeness oracle's state: OnLoad calls so far, and the
	// load and call count at the last observation (checkLoad).
	loads     int
	seen      boardLoad
	seenLoads int
}

// boardLoad is what a placement layer reads off a board, the values
// OnLoad must announce every change of.
type boardLoad struct {
	outstanding sim.Duration
	pending     int
	usable      int
}

func (b *lifecycleBoard) load() boardLoad {
	return boardLoad{b.h.OutstandingEstimate(), b.h.PendingCount(), b.h.UsableSlots()}
}

func newLifecycleBoard(t *testing.T, c lifecycleCase) *lifecycleBoard {
	t.Helper()
	b := &lifecycleBoard{eng: sim.NewEngine(), chk: schedtest.NewChecker()}
	// Slot deaths and quarantine shrink the board mid-run; reconfiguration
	// spacing is pinned by the dedicated CAP tests.
	b.chk.MinReconfigGap = 0
	b.jsonl = obs.NewJSONL(&b.buf)
	cfg := lifecycleConfig(c)
	cfg.Observer = obs.Tee(b.jsonl, b.chk, &b.kinds)
	var hosts *hostCheck
	if c.hostChecks != nil {
		hosts = &hostCheck{t: t, n: c.hostChecks}
		cfg.Observer = obs.Tee(cfg.Observer, hosts)
	}
	cfg.OnLoad = func() { b.loads++ }
	pol := lifecyclePolicy(t, c, cfg)
	if c.everyTick != nil {
		pol = newEveryTick(t, pol, c.everyTick)
	}
	h, err := hv.New(b.eng, cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if c.strictSaves != nil {
		h.StrictSaves(c.strictSaves)
	}
	if hosts != nil {
		hosts.h = h
	}
	b.h = h
	b.seen = b.load()
	return b
}

// checkLoad checks the running outstanding estimate against a sum from
// scratch (checkOutstanding), and that the board's load did not change
// since the last observation unless OnLoad ran in between.
func (b *lifecycleBoard) checkLoad(t *testing.T, when string) {
	t.Helper()
	checkOutstanding(t, b.h, when)
	now := b.load()
	if now != b.seen && b.loads == b.seenLoads {
		t.Fatalf("%s at %v: load went from %+v to %+v with no OnLoad call", when, b.h.Now(), b.seen, now)
	}
	b.seen, b.seenLoads = now, b.loads
}

// run drives the board to the horizon, one event at a time with the
// buffer counters and the load (checkLoad) checked after each when
// c.ledgerSteps is set. The stepped run must drain before the horizon,
// so it fires exactly the events RunUntil would.
func (b *lifecycleBoard) run(t *testing.T, c lifecycleCase) {
	t.Helper()
	horizon := lifecycleConfig(c).Horizon
	if c.ledgerSteps != nil {
		for b.eng.Step() {
			*c.ledgerSteps++
			checkLedger(t, b.h)
			b.checkLoad(t, "event")
			if b.eng.Now() > horizon {
				t.Fatalf("event at %v, past the horizon %v", b.eng.Now(), horizon)
			}
		}
	}
	b.eng.RunUntil(horizon)
}

// drained fails the test if the board still holds a buffer.
func (b *lifecycleBoard) drained(t *testing.T, name string) {
	t.Helper()
	if live, used := b.h.LiveBuffers(), b.h.UsedBufferBytes(); live != 0 || used != 0 {
		t.Fatalf("%s drained with %d live buffers, %d bytes", name, live, used)
	}
}

// digest folds the board's trace stream, results, recovery and energy
// reports into w. A Collect error is folded in and returned instead.
func (b *lifecycleBoard) digest(t *testing.T, w *bytes.Buffer) ([]hv.Result, error) {
	t.Helper()
	if err := b.jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "trace %x\n", sha256.Sum256(b.buf.Bytes()))
	res, err := b.h.Collect()
	if err != nil {
		fmt.Fprintf(w, "%v\n", err)
		return nil, err
	}
	for _, r := range res {
		fmt.Fprintf(w, "%+v\n", r)
	}
	fmt.Fprintf(w, "%+v\n%+v\n", b.h.Recovery(), b.h.Energy())
	return res, nil
}

// checkOutstanding recomputes the board's outstanding work from scratch,
// as the HLS estimate of every item not yet done over the submissions
// the board has not retired, and compares it with the running estimate.
func checkOutstanding(t *testing.T, h *hv.Hypervisor, when string) {
	t.Helper()
	var want sim.Duration
	for _, a := range h.UnretiredApps() {
		for task := 0; task < a.Graph.NumTasks(); task++ {
			want += a.Report.Task(task).Latency * sim.Duration(a.Batch-a.DoneCount(task))
		}
	}
	if got := h.OutstandingEstimate(); got != want {
		t.Fatalf("%s at %v: OutstandingEstimate %v, from scratch %v", when, h.Now(), got, want)
	}
}

// runLifecycle runs one scenario, checks the invariants every run must
// hold, and returns its outcome. A board whose Collect fails (work left
// at the horizon) ends the run early with the error in the outcome.
func runLifecycle(t *testing.T, c lifecycleCase) lifecycleOutcome {
	t.Helper()
	b := newLifecycleBoard(t, c)
	pool := lifecyclePool
	if c.pool != nil {
		pool = c.pool
	}
	seq := workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 10, BatchCap: 4, Pool: pool}, c.seed)
	ids := make([]int64, len(seq))
	for i, ev := range seq {
		id, err := b.h.SubmitID(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	b.checkLoad(t, "submitted")
	out := lifecycleOutcome{submitted: len(seq), spent: -1}
	// Every scheduled operation also checks the board's load (checkLoad),
	// before and after it acts.
	if c.slowAt > 0 {
		b.eng.At(c.slowAt, func() {
			b.checkLoad(t, "slowdown")
			b.h.SetSlowdown(c.slowFactor)
			b.checkLoad(t, "after slowdown")
		})
		b.eng.At(c.slowUntil, func() {
			b.checkLoad(t, "speedup")
			b.h.SetSlowdown(1)
			b.checkLoad(t, "after speedup")
		})
	}
	if c.abortAt > 0 {
		id := ids[c.abortIdx%len(ids)]
		b.eng.At(c.abortAt, func() {
			b.checkLoad(t, "abort")
			if ok, spent := b.h.Abort(id); ok {
				out.aborted, out.spent = 1, spent
				b.chk.Abandon(id, b.eng.Now())
			}
			b.checkLoad(t, "after abort")
		})
	}
	var evs []hv.Evacuee
	if c.freezeAt > 0 {
		b.eng.At(c.freezeAt, func() {
			b.checkLoad(t, "freeze")
			b.h.Freeze()
			b.checkLoad(t, "after freeze")
		})
		b.eng.At(c.freezeAt.Add(sim.Second), func() {
			b.checkLoad(t, "evacuate")
			evs = b.h.Evacuate()
			for _, ev := range evs {
				b.chk.Abandon(ev.ID, b.eng.Now())
			}
			b.checkLoad(t, "after evacuate")
		})
	}
	b.run(t, c)
	b.checkLoad(t, "drained")

	var w bytes.Buffer
	res, err := b.digest(t, &w)
	if err != nil {
		out.err, out.digest = err.Error(), fmt.Sprintf("%x", sha256.Sum256(w.Bytes()))
		return out
	}
	out.results, out.evacuees = len(res), len(evs)
	if err := b.chk.Finish(len(res)); err != nil {
		t.Fatalf("board 1: %v", err)
	}
	b.drained(t, "board 1")
	out.captures = b.kinds.Count(trace.KindCheckpoint)
	for _, ev := range evs {
		fmt.Fprintf(&w, "evacuee id=%d app=%s prio=%d batch=%d arrival=%v work=%v snaps=%+v\n",
			ev.ID, ev.App.Name, ev.Priority, ev.Batch, ev.Arrival, ev.WorkDone, ev.Snapshots)
	}

	// Re-submit the evacuees onto a fresh board with their snapshots.
	if len(evs) > 0 {
		b2 := newLifecycleBoard(t, c)
		for _, ev := range evs {
			id, err := b2.h.SubmitID(ev.App.Graph, ev.Batch, ev.Priority, 0)
			if err != nil {
				t.Fatal(err)
			}
			b2.h.SeedCheckpoints(id, ev.Snapshots)
			for _, sn := range ev.Snapshots {
				b2.chk.Seed(id, sn.Task, sn.Item, sn.Progress)
			}
		}
		b2.checkLoad(t, "migrated")
		b2.run(t, c)
		b2.checkLoad(t, "board 2 drained")
		res2, err := b2.digest(t, &w)
		if err != nil {
			out.err, out.digest = err.Error(), fmt.Sprintf("%x", sha256.Sum256(w.Bytes()))
			return out
		}
		out.migrated = len(res2)
		if err := b2.chk.Finish(len(res2)); err != nil {
			t.Fatalf("board 2: %v", err)
		}
		b2.drained(t, "board 2")
		out.captures += b2.kinds.Count(trace.KindCheckpoint)
	}
	out.digest = fmt.Sprintf("%x", sha256.Sum256(w.Bytes()))
	return out
}

// checkLifecycleConservation asserts the outcome balances: every
// submission retired, was evacuated, or was aborted, and every
// evacuee retired on the second board.
func checkLifecycleConservation(t *testing.T, out lifecycleOutcome) {
	t.Helper()
	if out.err != "" {
		t.Fatal(out.err)
	}
	if got := out.results + out.evacuees + out.aborted; got != out.submitted {
		t.Fatalf("%d results + %d evacuees + %d aborted != %d submitted", out.results, out.evacuees, out.aborted, out.submitted)
	}
	if out.migrated != out.evacuees {
		t.Fatalf("%d of %d evacuees retired on the second board", out.migrated, out.evacuees)
	}
	if out.aborted == 1 && out.spent < 0 {
		t.Fatalf("abort reported negative spent %v", out.spent)
	}
}

// TestLifecycleGolden pins the hypervisor's observable behaviour over a
// matrix of seeds and checkpoint modes: each cell's trace stream,
// results, recovery and energy reports, and evacuees hash to a line of
// testdata/lifecycle.golden. Refresh with -update only for an intended
// behaviour change.
func TestLifecycleGolden(t *testing.T) {
	var got strings.Builder
	for seed := int64(1); seed <= 20; seed++ {
		for mode := 0; mode < numModes; mode++ {
			out := runLifecycle(t, goldenLifecycleCase(seed, mode))
			checkLifecycleConservation(t, out)
			fmt.Fprintf(&got, "seed=%d mode=%s results=%d evacuees=%d aborted=%d %s\n",
				seed, modeNames[mode], out.results, out.evacuees, out.aborted, out.digest)
		}
	}
	path := filepath.Join("testdata", "lifecycle.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := ""
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("lifecycle golden differs at line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Fatal("lifecycle golden differs")
	}
}

// FuzzHypervisorLifecycle draws a workload seed, checkpoint mode, fault
// mix, and slowdown/abort/freeze instants, and checks that every run
// keeps the scheduler invariants, balances its submissions, drains its
// buffers, reports a non-negative abort cost, and keeps its load
// announced through OnLoad at every scheduled operation (checkLoad). Each input also runs
// under the every-tick reference and under the strict periodic-save
// reference, each of which must produce the same outcome: tick and
// save skipping are exact on every input. Its seed corpus lives in
// testdata/fuzz/FuzzHypervisorLifecycle.
func FuzzHypervisorLifecycle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, mode, faultBits uint8, slowMs, abortMs, freezeMs uint16) {
		c := newLifecycleCase(seed, int(mode), faultBits, slowMs%5000, abortMs%5000, freezeMs%8000)
		out := runLifecycle(t, c)
		tick := c
		tick.everyTick = new(int)
		if ref := runLifecycle(t, tick); ref != out {
			t.Fatalf("tick skipping changed the outcome:\n skipping   %+v\n every tick %+v", out, ref)
		}
		strict := c
		strict.strictSaves, strict.hostChecks = new(int), new(int)
		if ref := runLifecycle(t, strict); ref != out {
			t.Fatalf("save skipping changed the outcome:\n skipping %+v\n strict   %+v", out, ref)
		}
		checkLifecycleConservation(t, out)
	})
}
