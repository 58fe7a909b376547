package faults

import (
	"reflect"
	"strings"
	"testing"

	"nimblock/internal/fpga"
	"nimblock/internal/sim"
)

func TestParsePlanFull(t *testing.T) {
	text := `
# chaos scenario
seed 42
crc   prob=0.1 slot=3 from=1s until=10s
sd    prob=0.05
dead  slot=7 at=2.5s
hang  prob=0.01 app=LeNet task=2
slow  prob=0.02 factor=3.5
stall prob=0.1 delay=20ms
`
	p, err := ParsePlan(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || len(p.Faults) != 6 {
		t.Fatalf("plan = %+v", p)
	}
	want := []Fault{
		{Kind: TransientCRC, Slot: 3, Task: AnyTask, Prob: 0.1, From: sim.Time(sim.Second), Until: sim.Time(10 * sim.Second)},
		{Kind: SDReadError, Slot: AnySlot, Task: AnyTask, Prob: 0.05},
		{Kind: PermanentSlot, Slot: 7, Task: AnyTask, From: sim.Time(2500 * sim.Millisecond)},
		{Kind: TaskHang, Slot: AnySlot, App: "LeNet", Task: 2, Prob: 0.01},
		{Kind: TaskSlowdown, Slot: AnySlot, Task: AnyTask, Prob: 0.02, Factor: 3.5},
		{Kind: CAPStall, Slot: AnySlot, Task: AnyTask, Prob: 0.1, Stall: 20 * sim.Millisecond},
	}
	if !reflect.DeepEqual(p.Faults, want) {
		t.Fatalf("faults = %+v\nwant %+v", p.Faults, want)
	}
}

func TestPlanStringRoundTrips(t *testing.T) {
	p := Plan{Seed: 7, Faults: []Fault{
		{Kind: TransientCRC, Slot: AnySlot, Task: AnyTask, Prob: 0.25},
		{Kind: PermanentSlot, Slot: 9, Task: AnyTask, From: sim.Time(3 * sim.Second)},
		{Kind: TaskHang, Slot: 2, App: "OpticalFlow", Task: 1, Prob: 1, From: sim.Time(sim.Second), Until: sim.Time(2 * sim.Second)},
		{Kind: TaskSlowdown, Slot: AnySlot, Task: AnyTask, Prob: 0.5, Factor: 10},
		{Kind: CAPStall, Slot: AnySlot, Task: AnyTask, Prob: 1, Stall: sim.Duration(1500)},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("canonical form %q does not parse: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip changed plan:\n%+v\n%+v", p, back)
	}
}

func TestParsePlanRejects(t *testing.T) {
	bad := []string{
		"bogus prob=0.5",
		"crc",                           // zero probability never fires
		"crc prob=2",                    // probability out of range
		"crc prob=NaN",                  // not a probability
		"crc prob",                      // not key=value
		"crc prob=0.5 prob=0.5",         // duplicate field
		"crc prob=0.5 wat=1",            // unknown field
		"crc prob=0.5 from=5s until=1s", // empty window
		"crc prob=0.5 at=1s",            // at= is dead-only
		"dead slot=1",                   // missing at=
		"dead slot=1 at=1s prob=.5",     // dead is unconditional
		"dead at=1s",                    // missing slot
		"dead slot=1 from=1s",           // dead uses at=
		"slow prob=0.5",                 // missing factor
		"slow prob=0.5 factor=0.5",      // factor must exceed 1
		"stall prob=0.5",                // missing delay
		"stall prob=0.5 delay=-1ms",     // negative delay
		"hang prob=0.5 slot=-3",         // bad slot
		"seed 1\nseed 2",                // duplicate seed
		"seed x",
	}
	for _, text := range bad {
		if _, err := ParsePlan(text); err == nil {
			t.Errorf("accepted %q", text)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := MustParsePlan("seed 3\ncrc prob=0.3\nhang prob=0.2\nstall prob=0.5 delay=1ms")
	a, _ := New(plan)
	b, _ := New(plan)
	for i := 0; i < 200; i++ {
		ra, rb := a.ReconfigAttempt(sim.Time(i), i%8, 0), b.ReconfigAttempt(sim.Time(i), i%8, 0)
		if ra != rb {
			t.Fatalf("probe %d: %+v vs %+v", i, ra, rb)
		}
		ea, eb := a.Exec(sim.Time(i), "x", 0, i%8), b.Exec(sim.Time(i), "x", 0, i%8)
		if ea != eb {
			t.Fatalf("exec probe %d: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestWindowsAndScopes(t *testing.T) {
	plan := MustParsePlan(`
crc prob=1 slot=2 from=1s until=2s
dead slot=5 at=3s
hang prob=1 app=A task=1
slow prob=1 factor=2 app=B
`)
	inj, _ := New(plan)
	sec := sim.Time(sim.Second)
	// Outside the window or slot scope: clean.
	if out := inj.ReconfigAttempt(0, 2, 0); out.Class != fpga.FaultNone {
		t.Fatalf("fault before window: %+v", out)
	}
	if out := inj.ReconfigAttempt(sec+sec/2, 3, 0); out.Class != fpga.FaultNone {
		t.Fatalf("fault on unscoped slot: %+v", out)
	}
	if out := inj.ReconfigAttempt(sec+sec/2, 2, 0); out.Class != fpga.FaultCRC {
		t.Fatalf("no fault inside window: %+v", out)
	}
	if out := inj.ReconfigAttempt(2*sec, 2, 0); out.Class != fpga.FaultNone {
		t.Fatalf("window end is exclusive: %+v", out)
	}
	// A reconfiguration attempt on a dead slot after its failure time is
	// fatal even before the hypervisor reaps it.
	if out := inj.ReconfigAttempt(4*sec, 5, 0); out.Class != fpga.FaultFatal {
		t.Fatalf("attempt on dead slot: %+v", out)
	}
	if out := inj.ReconfigAttempt(4*sec, 4, 0); out.Class != fpga.FaultNone {
		t.Fatalf("neighbour of dead slot faulted: %+v", out)
	}
	// Exec scoping by app and task.
	if out := inj.Exec(0, "A", 1, 0); !out.Hang {
		t.Fatalf("scoped hang did not fire: %+v", out)
	}
	if out := inj.Exec(0, "A", 0, 0); out.Hang {
		t.Fatalf("hang fired on wrong task: %+v", out)
	}
	if out := inj.Exec(0, "B", 3, 0); out.Factor != 2 {
		t.Fatalf("scoped slowdown did not fire: %+v", out)
	}
	if out := inj.Exec(0, "C", 0, 0); out.Hang || out.Factor != 1 {
		t.Fatalf("unscoped app faulted: %+v", out)
	}
	// Permanent failures are exposed for hypervisor scheduling.
	fails := inj.PermanentFailures()
	if len(fails) != 1 || fails[0] != (fpga.SlotFailure{Slot: 5, At: 3 * sec}) {
		t.Fatalf("permanent failures = %+v", fails)
	}
}

func TestFactoryYieldsFreshInjectors(t *testing.T) {
	factory, err := Uniform(0.5, 1).Factory()
	if err != nil {
		t.Fatal(err)
	}
	seq := func(in fpga.Injector) []fpga.FaultClass {
		var out []fpga.FaultClass
		for i := 0; i < 50; i++ {
			out = append(out, in.ReconfigAttempt(0, 0, 0).Class)
		}
		return out
	}
	if !reflect.DeepEqual(seq(factory()), seq(factory())) {
		t.Fatal("factory instances share random state")
	}
	if _, err := (Plan{Faults: []Fault{{Kind: Kind(99)}}}).Factory(); err == nil {
		t.Fatal("invalid plan produced a factory")
	}
}

func TestUniformZeroRateIsValidButIdle(t *testing.T) {
	// rate 0 makes an invalid plan (never fires); Uniform callers guard.
	if err := Uniform(0, 1).Validate(); err == nil {
		t.Fatal("zero-rate uniform plan validated; callers must guard")
	}
	if !strings.Contains(Uniform(0.5, 1).String(), "crc prob=0.5") {
		t.Fatalf("uniform plan renders %q", Uniform(0.5, 1).String())
	}
}
