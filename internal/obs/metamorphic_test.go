package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/hv"
	"nimblock/internal/obs"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
	"nimblock/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden metamorphic snapshots")

// scenarioRun is one deterministic simulation with live observability
// attached alongside the post-hoc trace.
type scenarioRun struct {
	results []hv.Result
	log     *trace.Log
	metrics *obs.Metrics
	spans   *obs.SpanBuilder
	slots   int
}

func runScenario(t *testing.T, name string) scenarioRun {
	t.Helper()
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	spec := workload.Spec{Scenario: workload.Standard, Events: 8}
	seed := int64(7)
	switch name {
	case "standard":
	case "stress":
		spec = workload.Spec{Scenario: workload.Stress, Events: 10}
		seed = 3
	case "chaos":
		spec = workload.Spec{Scenario: workload.Stress, Events: 8}
		seed = 11
		cfg.Board.NewInjector = faults.Uniform(0.15, 3).MustFactory()
		cfg.Board.MaxRetries = 50
	default:
		t.Fatalf("unknown scenario %q", name)
	}
	reg := obs.NewRegistry()
	m := obs.NewMetrics(reg, cfg.Board.Slots)
	spans := obs.NewSpanBuilder()
	log := trace.New()
	cfg.Observer = obs.Tee(log, m, spans)

	h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range workload.Generate(spec, seed) {
		if err := h.Submit(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	return scenarioRun{results: res, log: log, metrics: m, spans: spans, slots: cfg.Board.Slots}
}

func scenarios() []string { return []string{"standard", "stress", "chaos"} }

// Metamorphic relation 1: folding the events online (as the run emits
// them) and post-hoc (replaying the recorded log) must produce exactly
// the same metrics registry and the same spans — compared as bytes.
func TestOnlineEqualsPostHoc(t *testing.T) {
	for _, name := range scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := runScenario(t, name)

			replayReg := obs.NewRegistry()
			replayM := obs.NewMetrics(replayReg, run.slots)
			run.log.Replay(replayM)
			online, err := json.Marshal(run.metrics.Registry())
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := json.Marshal(replayReg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(online, replayed) {
				t.Fatalf("online metrics diverge from post-hoc replay:\nonline  %s\nreplay  %s", online, replayed)
			}

			liveSpans, err := json.Marshal(run.spans)
			if err != nil {
				t.Fatal(err)
			}
			replayS := obs.NewSpanBuilder()
			run.log.Replay(replayS)
			replaySpans, err := json.Marshal(replayS)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(liveSpans, replaySpans) {
				t.Fatalf("online spans diverge from post-hoc replay:\nonline  %s\nreplay  %s", liveSpans, replaySpans)
			}
		})
	}
}

// Metamorphic relation 2: the online instruments agree with the
// independent post-hoc analyzers — trace.Summarize and the hypervisor's
// own accounting — on every derivable quantity.
func TestOnlineMatchesSummarize(t *testing.T) {
	for _, name := range scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := runScenario(t, name)
			reg := run.metrics.Registry()
			snap := reg.Snapshot()

			if got := snap.Counters["nimblock_apps_completed_total"]; got != int64(len(run.results)) {
				t.Fatalf("completed counter %d, want %d", got, len(run.results))
			}
			if got := snap.Gauges["nimblock_pending_apps"]; got != 0 {
				t.Fatalf("pending gauge %v after full drain", got)
			}

			var wantResponse, wantWait float64
			for _, r := range run.results {
				wantResponse += r.Response.Seconds()
				wantWait += r.FirstLaunch.Sub(r.Arrival).Seconds()
			}
			resp := snap.Histograms["nimblock_response_seconds"]
			if resp.Count != int64(len(run.results)) {
				t.Fatalf("response count %d, want %d", resp.Count, len(run.results))
			}
			if math.Abs(resp.Sum-wantResponse) > 1e-9*math.Max(1, wantResponse) {
				t.Fatalf("response sum %v, accounting %v", resp.Sum, wantResponse)
			}
			wait := snap.Histograms["nimblock_wait_seconds"]
			if math.Abs(wait.Sum-wantWait) > 1e-9*math.Max(1, wantWait) {
				t.Fatalf("wait sum %v, accounting %v", wait.Sum, wantWait)
			}

			sums := run.log.Summarize()
			byID := map[int64]trace.AppSummary{}
			for _, s := range sums {
				byID[s.AppID] = s
			}
			var events int64
			for _, c := range snap.Counters {
				events += c
			}
			events -= snap.Counters["nimblock_apps_completed_total"]
			if events != int64(run.log.Len()) {
				t.Fatalf("per-kind counters sum to %d events, trace has %d", events, run.log.Len())
			}

			for _, sp := range run.spans.Spans() {
				s, ok := byID[sp.AppID]
				if !ok {
					t.Fatalf("span for unknown app %d", sp.AppID)
				}
				if sp.Response() != s.Response() {
					t.Fatalf("app %d: span response %v, summary %v", sp.AppID, sp.Response(), s.Response())
				}
				if sp.Items != s.Items {
					t.Fatalf("app %d: span items %d, summary %d", sp.AppID, sp.Items, s.Items)
				}
			}
		})
	}
}

// Golden snapshots: the registry's JSON for each scenario is pinned.
// Deterministic simulation + deterministic encoding means any drift in
// either the scheduler or the metrics pipeline shows up as a byte diff.
// Refresh intentionally with -update.
func TestMetricsGoldenSnapshots(t *testing.T) {
	for _, name := range scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := runScenario(t, name)
			got, err := json.MarshalIndent(run.metrics.Registry().Snapshot(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "metrics_"+name+".golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("metrics snapshot drifted from %s:\n%s", path, got)
			}
		})
	}
}

// Checkpoint instruments agree with the hypervisor's recovery
// accounting: resumes, saved work, and transfer overhead fold online
// into the registry exactly as RecoveryStats reports them.
func TestCheckpointMetricsMatchRecovery(t *testing.T) {
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	reg := obs.NewRegistry()
	m := obs.NewMetrics(reg, cfg.Board.Slots)
	cfg.Observer = m
	cfg.Board.NewInjector = faults.MustParsePlan("seed 7\nslow prob=0.6 factor=4 until=120s").MustFactory()
	cfg.WatchdogFactor = 2
	cfg.WatchdogGrace = 20 * sim.Millisecond
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
	h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 6}, 5) {
		if err := h.Submit(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Run(); err != nil {
		t.Fatal(err)
	}
	rec := h.Recovery()
	if rec.ResumedItems == 0 {
		t.Fatal("scenario produced no resumes; the test checks nothing")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["nimblock_items_resumed_total"]; got != int64(rec.ResumedItems) {
		t.Fatalf("resumed counter %d, recovery %d", got, rec.ResumedItems)
	}
	if got, want := snap.Gauges["nimblock_saved_work_seconds"], rec.SavedWork.Seconds(); math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("saved-work gauge %v, recovery %v", got, want)
	}
	if got, want := snap.Gauges["nimblock_checkpoint_overhead_seconds"], rec.CheckpointOverhead.Seconds(); math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("overhead gauge %v, recovery %v", got, want)
	}
	xfer := snap.Histograms["nimblock_state_transfer_seconds"]
	if xfer.Count != int64(rec.CheckpointSaves+rec.ResumedItems) {
		t.Fatalf("transfer count %d, want %d saves + %d restores", xfer.Count, rec.CheckpointSaves, rec.ResumedItems)
	}
}

// The effective-slots gauge tracks permanent slot losses live.
func TestEffectiveSlotsGauge(t *testing.T) {
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	reg := obs.NewRegistry()
	m := obs.NewMetrics(reg, cfg.Board.Slots)
	cfg.Observer = m
	cfg.Board.NewInjector = faults.Plan{
		Seed:   1,
		Faults: []faults.Fault{{Kind: faults.PermanentSlot, Slot: 1, From: sim.Time(200 * sim.Millisecond)}},
	}.MustFactory()
	h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 6}, 5) {
		if err := h.Submit(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Run(); err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.Board.Slots - 1)
	if got := reg.Snapshot().Gauges["nimblock_effective_slots"]; got != want {
		t.Fatalf("effective slots %v, want %v", got, want)
	}
	if busy := reg.Snapshot().Gauges["nimblock_cap_busy_fraction"]; busy <= 0 || busy > 1 {
		t.Fatalf("CAP busy fraction %v outside (0,1]", busy)
	}
}
