package fpga

import (
	"math"
	"testing"

	"nimblock/internal/sim"
)

func TestParseSpecRoundTrip(t *testing.T) {
	in := "slots=8 cap=1.173e+08 sd=4.69e+08 scale=1.25 static=2.5 active=1.5"
	sp, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Slots != 8 || sp.LatencyScale != 1.25 || sp.StaticWattsPerSlot != 2.5 || sp.ActiveWattsPerSlot != 1.5 {
		t.Fatalf("parsed %+v", sp)
	}
	again, err := ParseSpec(sp.String())
	if err != nil {
		t.Fatalf("round trip of %q: %v", sp.String(), err)
	}
	if again != sp {
		t.Fatalf("round trip %+v != %+v", again, sp)
	}
}

func TestParseSpecCommaSeparated(t *testing.T) {
	sp, err := ParseSpec("slots=4,scale=2")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Slots != 4 || sp.LatencyScale != 2 {
		t.Fatalf("parsed %+v", sp)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"slots=0",
		"slots=-3",
		"scale=1", // missing slots
		"slots=4 scale=-1",
		"slots=4 scale=NaN",
		"slots=4 scale=Inf",
		"slots=4 static=NaN",
		"slots=4 static=-2",
		"slots=4 active=-0.5",
		"slots=4 cap=-1",
		"slots=4 bogus=1",
		"slots=4 slots=5",
		"slots=x",
		"slots",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", s)
		}
	}
}

func TestSpecApplyInheritsZeroFields(t *testing.T) {
	base := DefaultConfig()
	cfg := Spec{Slots: 6, LatencyScale: 1.5}.Apply(base)
	if cfg.Slots != 6 || cfg.LatencyScale != 1.5 {
		t.Fatalf("applied %+v", cfg)
	}
	if cfg.CAPBytesPerSec != base.CAPBytesPerSec || cfg.SDBytesPerSec != base.SDBytesPerSec {
		t.Fatalf("bandwidths not inherited: %+v", cfg)
	}
	if cfg.StaticWattsPerSlot != 0 || cfg.ActiveWattsPerSlot != 0 {
		t.Fatalf("power not inherited: %+v", cfg)
	}
}

func TestNewBoardRejectsBadPower(t *testing.T) {
	eng := sim.NewEngine()
	for _, cfg := range []Config{
		func() Config { c := DefaultConfig(); c.LatencyScale = -1; return c }(),
		func() Config { c := DefaultConfig(); c.LatencyScale = math.NaN(); return c }(),
		func() Config { c := DefaultConfig(); c.StaticWattsPerSlot = math.NaN(); return c }(),
		func() Config { c := DefaultConfig(); c.StaticWattsPerSlot = -2; return c }(),
		func() Config { c := DefaultConfig(); c.ActiveWattsPerSlot = math.Inf(1); return c }(),
	} {
		if _, err := NewBoard(eng, cfg); err == nil {
			t.Errorf("NewBoard accepted %+v, want error", cfg)
		}
	}
}

func TestBoardEnergyIntegrals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StaticWattsPerSlot = 2
	cfg.ActiveWattsPerSlot = 1
	eng, b := newBoard(t, cfg)
	if err := b.Reconfigure(0, func(err error) {
		if err != nil {
			t.Errorf("reconfigure: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	occupied := b.cfg.ReconfigTime() // slot 0 occupied since t=0
	hold := sim.Second
	eng.RunUntil(eng.Now().Add(hold))
	occupied += hold
	if got := b.OccupiedSlotTime(); got != occupied {
		t.Fatalf("occupied slot time %v, want %v", got, occupied)
	}
	wall := sim.Duration(eng.Now())
	if got := b.UsableSlotTime(); got != wall*sim.Duration(cfg.Slots) {
		t.Fatalf("usable slot time %v, want %v", got, wall*sim.Duration(cfg.Slots))
	}
	want := 2*float64(cfg.Slots)*wall.Seconds() + 1*occupied.Seconds()
	if got := b.Energy(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("energy %v J, want %v J", got, want)
	}
	if err := b.Release(0); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now().Add(hold))
	if got := b.OccupiedSlotTime(); got != occupied {
		t.Fatalf("occupied slot time after release %v, want %v (unchanged)", got, occupied)
	}
}

func TestBoardEnergyUsableDropsOffline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StaticWattsPerSlot = 1
	eng, b := newBoard(t, cfg)
	eng.RunUntil(sim.Time(sim.Second))
	if err := b.SetOffline(3); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	want := sim.Duration(cfg.Slots)*sim.Second + sim.Duration(cfg.Slots-1)*sim.Second
	if got := b.UsableSlotTime(); got != want {
		t.Fatalf("usable slot time %v, want %v", got, want)
	}
}

func TestLatencyScaleDefault(t *testing.T) {
	_, b := newBoard(t, DefaultConfig())
	if b.LatencyScale() != 1 {
		t.Fatalf("default latency scale %v, want 1", b.LatencyScale())
	}
	cfg := DefaultConfig()
	cfg.LatencyScale = 0.5
	_, b = newBoard(t, cfg)
	if b.LatencyScale() != 0.5 {
		t.Fatalf("latency scale %v, want 0.5", b.LatencyScale())
	}
}

// FuzzBoardSpec drives the parse/validate/apply path: any spec the
// parser accepts must validate, round-trip through String, and build a
// board without error.
func FuzzBoardSpec(f *testing.F) {
	f.Add("slots=8 cap=117.3e6 sd=469e6 scale=1.25 static=2.5 active=1.5")
	f.Add("slots=1")
	f.Add("slots=10,scale=0.5")
	f.Add("slots=0")
	f.Add("slots=4 static=NaN")
	f.Add("slots=4 scale=-1")
	f.Add("slots=2 active=1e308 static=1e308")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		if sp.Slots < 1 {
			t.Fatalf("ParseSpec(%q) accepted %d slots", s, sp.Slots)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted but Validate failed: %v", s, err)
		}
		again, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("round trip of %q (from %q): %v", sp.String(), s, err)
		}
		if again != sp {
			t.Fatalf("round trip %+v != %+v (input %q)", again, sp, s)
		}
		cfg := sp.Apply(DefaultConfig())
		if _, err := NewBoard(sim.NewEngine(), cfg); err != nil {
			t.Fatalf("NewBoard rejected applied spec %q: %v", s, err)
		}
	})
}
