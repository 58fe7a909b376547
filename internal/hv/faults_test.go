package hv_test

import (
	"strings"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// degradedWorkload keeps the board contended well past the last slot
// failure so degradation, not idleness, shapes the makespan.
func degradedWorkload() []submission {
	return []submission{
		{apps.LeNet, 6, 9, 0},
		{apps.OpticalFlow, 8, 3, 0},
		{apps.ImageCompression, 6, 3, 200 * sim.Time(sim.Millisecond)},
		{apps.Rendering3D, 8, 1, 400 * sim.Time(sim.Millisecond)},
		{apps.DigitRecognition, 6, 9, 600 * sim.Time(sim.Millisecond)},
		{apps.OpticalFlow, 6, 1, 800 * sim.Time(sim.Millisecond)},
	}
}

func makespan(res []hv.Result) sim.Time {
	var end sim.Time
	for _, r := range res {
		if r.Retire > end {
			end = r.Retire
		}
	}
	return end
}

func runNimblock(t *testing.T, cfg hv.Config, subs []submission) ([]hv.Result, *hv.Hypervisor) {
	t.Helper()
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, h
}

// Acceptance: a fault plan that permanently kills 3 of the 10 slots
// mid-run — one by quarantine after repeated CRC faults, two by outright
// hardware death — plus an early task hang must leave the contended
// Nimblock workload fully completed with zero hypervisor errors, the
// recovery events on the trace, and a makespan comparable to running on
// the surviving 7 slots from the start.
func TestDegradedBoardAcceptance(t *testing.T) {
	plan := faults.MustParsePlan(`
seed 11
crc  slot=7 prob=1
dead slot=8 at=1s
dead slot=9 at=2s
hang app=LeNet task=0 prob=1 until=400ms
`)
	cfg := hv.DefaultConfig()
	log := traced(&cfg)
	cfg.Board.NewInjector = plan.MustFactory()
	cfg.WatchdogFactor = 3
	cfg.WatchdogGrace = 50 * sim.Millisecond
	cfg.QuarantineThreshold = 3

	res, h := runNimblock(t, cfg, degradedWorkload())
	if h.Err() != nil {
		t.Fatalf("hypervisor error: %v", h.Err())
	}
	if len(res) != len(degradedWorkload()) {
		t.Fatalf("%d results for %d submissions", len(res), len(degradedWorkload()))
	}
	if got := h.UsableSlots(); got != 7 {
		t.Errorf("usable slots after the plan: %d, want 7", got)
	}

	if log.Count(trace.KindQuarantine) != 1 {
		t.Errorf("%d quarantine events, want 1", log.Count(trace.KindQuarantine))
	}
	if log.Count(trace.KindSlotOffline) != 3 {
		t.Errorf("%d slot-offline events, want 3", log.Count(trace.KindSlotOffline))
	}
	if log.Count(trace.KindWatchdog) == 0 {
		t.Error("no watchdog events despite a guaranteed hang")
	}
	if log.Count(trace.KindRetry) == 0 {
		t.Error("no retry events despite a guaranteed CRC fault")
	}

	rec := h.Recovery()
	if rec.SlotsOffline != 3 || rec.Quarantined != 1 {
		t.Errorf("recovery stats: %d offline (%d quarantined), want 3 (1)", rec.SlotsOffline, rec.Quarantined)
	}
	if rec.WatchdogKills == 0 || rec.WastedWork <= 0 {
		t.Errorf("watchdog accounting: kills=%d wasted=%v", rec.WatchdogKills, rec.WastedWork)
	}

	// Fault-free baseline on the 7 slots that survive: the degraded run
	// pays for retries, the hang, and work stranded on dying slots, but
	// must stay within 2x.
	base := hv.DefaultConfig()
	base.Board.Slots = 7
	bres, bh := runNimblock(t, base, degradedWorkload())
	if bh.Err() != nil {
		t.Fatalf("baseline hypervisor error: %v", bh.Err())
	}
	faulted, clean := makespan(res), makespan(bres)
	if clean <= 0 {
		t.Fatalf("degenerate baseline makespan %v", clean)
	}
	if ratio := float64(faulted) / float64(clean); ratio > 2 {
		t.Errorf("degraded makespan %v is %.2fx the 7-slot fault-free %v (limit 2x)", faulted, ratio, clean)
	}
}

// Unrecoverable hardware (every reconfiguration attempt faults, forever)
// must fail cleanly: each policy reports applications unfinished at the
// horizon rather than wedging, panicking, or corrupting state.
func TestUnrecoverableFaultsFailCleanly(t *testing.T) {
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			cfg := hv.DefaultConfig()
			cfg.Board.NewInjector = faults.Uniform(1, 0).MustFactory()
			cfg.Horizon = sim.Time(10 * sim.Second)
			h, err := hv.New(eng, cfg, mk())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range mixedWorkload() {
				if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := h.Run(); err == nil {
				t.Fatal("run succeeded on a board that cannot configure anything")
			} else if !strings.Contains(err.Error(), "unfinished at horizon") {
				t.Fatalf("want a clean horizon failure, got: %v", err)
			}
			if h.Err() != nil {
				t.Fatalf("mechanical hypervisor error: %v", h.Err())
			}
			// Transient faults never cost slots: every failed
			// reconfiguration freed its slot and returned the task to
			// the policy.
			if h.UsableSlots() != h.NumSlots() {
				t.Errorf("%d of %d slots usable after transient-only faults",
					h.UsableSlots(), h.NumSlots())
			}
		})
	}
}
