// Package faults provides deterministic fault injection for the virtual
// FPGA and its hypervisor.
//
// A fault plan is a declarative list of fault specifications — transient
// CRC faults, SD read errors, permanent slot failures at a known time,
// task hangs, task slowdowns, and CAP stalls — each scoped to a slot,
// application, task, and time window. A seedable Injector evaluates the
// plan at the probe points exposed by fpga.Injector, so every run of a
// plan is bit-for-bit reproducible. Plans are written either in Go or in
// a small line-oriented DSL (see ParsePlan), which the chaos experiment
// and examples use. Checkpoint integrity faults (lost/corrupt) probe at
// restore time and force a fall-back to from-scratch re-execution.
//
// The recovery side lives with the mechanisms: the board retries
// transient faults with capped exponential backoff, the hypervisor
// watchdog re-executes items lost to hangs, and slots that fail
// permanently or exceed the quarantine threshold are taken offline while
// the scheduler's goal numbers adapt to the reduced board.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"nimblock/internal/fpga"
	"nimblock/internal/sim"
)

// Kind is one fault mechanism.
type Kind int

const (
	// TransientCRC fails a reconfiguration attempt with a CRC mismatch;
	// the board retries with backoff.
	TransientCRC Kind = iota
	// SDReadError fails a reconfiguration attempt while staging the
	// bitstream from SD; also retryable.
	SDReadError
	// PermanentSlot kills a slot outright at time From; the hypervisor
	// takes it offline even mid-execution.
	PermanentSlot
	// TaskHang makes a matching item never complete; only the watchdog
	// recovers the slot.
	TaskHang
	// TaskSlowdown multiplies a matching item's latency by Factor.
	TaskSlowdown
	// CAPStall adds Stall extra latency to a reconfiguration attempt.
	CAPStall
	// CheckpointLost makes a matching checkpoint restore find its
	// snapshot gone — the item falls back to from-scratch re-execution
	// without spending restore time.
	CheckpointLost
	// CheckpointCorrupt makes a matching checkpoint restore stream back
	// through the CAP and then fail validation — restore time is spent,
	// then the item re-executes from scratch.
	CheckpointCorrupt
	// BoardCrash kills an entire board at time From: every slot, the CAP,
	// and all in-flight work. The fleet health layer declares the board
	// dead and fails work over; an optional Recover time schedules the
	// board's return through the circuit breaker.
	BoardCrash
	// BoardHang freezes a board at time From: events stop, heartbeats
	// stall, and liveness detection must notice the silence. Recover,
	// when set, revives the board.
	BoardHang
	// BoardDegrade multiplies every item latency on the board by Factor
	// over the [From, Until) window, marking the board degraded so
	// health-aware dispatch steers new work elsewhere.
	BoardDegrade

	numKinds
)

// keyword returns the DSL keyword for the kind.
func (k Kind) keyword() string {
	switch k {
	case TransientCRC:
		return "crc"
	case SDReadError:
		return "sd"
	case PermanentSlot:
		return "dead"
	case TaskHang:
		return "hang"
	case TaskSlowdown:
		return "slow"
	case CAPStall:
		return "stall"
	case CheckpointLost:
		return "lost"
	case CheckpointCorrupt:
		return "corrupt"
	case BoardCrash:
		return "board-crash"
	case BoardHang:
		return "board-hang"
	case BoardDegrade:
		return "board-degrade"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// String names the kind.
func (k Kind) String() string { return k.keyword() }

// AnySlot and AnyTask are wildcard scopes.
const (
	AnySlot = -1
	AnyTask = -1
)

// Fault is one fault specification. Zero scope fields mean "match
// everything": Slot/Task of -1, empty App, and an open time window.
type Fault struct {
	Kind Kind
	// Slot scopes the fault to one reconfigurable region (AnySlot for
	// all). PermanentSlot requires an explicit slot.
	Slot int
	// App and Task scope execution faults (TaskHang, TaskSlowdown) to
	// one application name and/or task index.
	App  string
	Task int
	// From and Until bound the active window. Until of 0 leaves the
	// window open-ended. PermanentSlot fires exactly at From.
	From  sim.Time
	Until sim.Time
	// Prob is the per-opportunity trigger probability in [0,1].
	// PermanentSlot ignores it (the failure is certain).
	Prob float64
	// Factor is the TaskSlowdown or BoardDegrade latency multiplier
	// (> 1).
	Factor float64
	// Stall is the CAPStall extra latency.
	Stall sim.Duration
	// Board scopes board-level faults (BoardCrash, BoardHang,
	// BoardDegrade) to one board index in a fleet. Other kinds must
	// leave it 0.
	Board int
	// Recover schedules the board's return for BoardCrash and BoardHang
	// (must be after From); 0 means the board never comes back.
	Recover sim.Time
}

// boardScoped reports whether the kind targets a whole board rather
// than a slot, app, or checkpoint.
func (k Kind) boardScoped() bool {
	return k == BoardCrash || k == BoardHang || k == BoardDegrade
}

// active reports whether the window covers now.
func (f Fault) active(now sim.Time) bool {
	return now >= f.From && (f.Until == 0 || now < f.Until)
}

// matchSlot reports whether the fault applies to the slot.
func (f Fault) matchSlot(slot int) bool { return f.Slot == AnySlot || f.Slot == slot }

// matchExec reports whether the fault applies to the (app, task) pair.
func (f Fault) matchExec(app string, task int) bool {
	return (f.App == "" || f.App == app) && (f.Task == AnyTask || f.Task == task)
}

// validate checks one fault.
func (f Fault) validate(i int) error {
	if f.Kind < 0 || f.Kind >= numKinds {
		return fmt.Errorf("faults: fault %d: unknown kind %d", i, int(f.Kind))
	}
	if !(f.Prob >= 0 && f.Prob <= 1) { // also rejects NaN
		return fmt.Errorf("faults: fault %d: probability %v outside [0,1]", i, f.Prob)
	}
	if f.Slot < AnySlot {
		return fmt.Errorf("faults: fault %d: slot %d invalid", i, f.Slot)
	}
	if f.Task < AnyTask {
		return fmt.Errorf("faults: fault %d: task %d invalid", i, f.Task)
	}
	if f.From < 0 || f.Until < 0 {
		return fmt.Errorf("faults: fault %d: negative window", i)
	}
	if f.Until != 0 && f.Until <= f.From {
		return fmt.Errorf("faults: fault %d: empty window [%v,%v)", i, f.From, f.Until)
	}
	if f.Board < 0 {
		return fmt.Errorf("faults: fault %d: board %d invalid", i, f.Board)
	}
	if !f.Kind.boardScoped() {
		if f.Board != 0 {
			return fmt.Errorf("faults: fault %d: board= only applies to board-level kinds", i)
		}
		if f.Recover != 0 {
			return fmt.Errorf("faults: fault %d: recover= only applies to board-crash and board-hang", i)
		}
	} else {
		if f.Slot != AnySlot || f.App != "" || f.Task != AnyTask {
			return fmt.Errorf("faults: fault %d: %v scopes to a board, not slot/app/task", i, f.Kind)
		}
	}
	switch f.Kind {
	case PermanentSlot:
		if f.Slot == AnySlot {
			return fmt.Errorf("faults: fault %d: permanent failure needs an explicit slot", i)
		}
	case TaskSlowdown, BoardDegrade:
		if !(f.Factor > 1 && f.Factor <= 1e6) { // also rejects NaN and Inf
			return fmt.Errorf("faults: fault %d: slowdown factor %v outside (1,1e6]", i, f.Factor)
		}
	case CAPStall:
		if f.Stall <= 0 {
			return fmt.Errorf("faults: fault %d: stall duration %v must be positive", i, f.Stall)
		}
	case BoardCrash, BoardHang:
		if f.Until != 0 {
			return fmt.Errorf("faults: fault %d: %v fires at a point in time, not a window", i, f.Kind)
		}
		if f.Recover != 0 && f.Recover <= f.From {
			return fmt.Errorf("faults: fault %d: recover %v not after at %v", i,
				sim.Duration(f.Recover), sim.Duration(f.From))
		}
	}
	if f.Kind == BoardDegrade && f.Recover != 0 {
		return fmt.Errorf("faults: fault %d: board-degrade ends with until=, not recover=", i)
	}
	if f.Kind != TaskSlowdown && f.Kind != BoardDegrade && f.Factor != 0 {
		return fmt.Errorf("faults: fault %d: factor only applies to slow and board-degrade", i)
	}
	if f.Kind != CAPStall && f.Stall != 0 {
		return fmt.Errorf("faults: fault %d: delay only applies to stall", i)
	}
	if f.Kind == PermanentSlot || f.Kind.boardScoped() {
		if f.Prob != 0 {
			return fmt.Errorf("faults: fault %d: %v is unconditional, prob does not apply", i, f.Kind)
		}
	} else if f.Prob == 0 {
		return fmt.Errorf("faults: fault %d: %v fault with zero probability never fires", i, f.Kind)
	}
	return nil
}

// Plan is a complete fault scenario.
type Plan struct {
	// Seed derives every random decision the plan makes.
	Seed int64
	// Faults are evaluated in order at every probe point.
	Faults []Fault
}

// Validate checks every fault in the plan.
func (p Plan) Validate() error {
	for i, f := range p.Faults {
		if err := f.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// Uniform is the plan "crc prob=rate" at the given seed: every
// reconfiguration attempt faults CRC with the given probability, one
// reconfiguration draw per attempt.
func Uniform(rate float64, seed int64) Plan {
	return Plan{Seed: seed, Faults: []Fault{{
		Kind: TransientCRC, Slot: AnySlot, Task: AnyTask, Prob: rate,
	}}}
}

// Injector evaluates a plan deterministically. It implements
// fpga.Injector. Reconfiguration, execution, and checkpoint probes draw
// from independent random streams so adding faults of one family to a
// plan never perturbs the fault sequences of the others.
type Injector struct {
	plan     Plan
	reconfig *rand.Rand
	exec     *rand.Rand
	ckpt     *rand.Rand
}

// New builds an injector for the plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:     plan,
		reconfig: rand.New(rand.NewSource(plan.Seed)),
		exec:     rand.New(rand.NewSource(plan.Seed ^ 0x5e3779b97f4a7c15)),
		ckpt:     rand.New(rand.NewSource(plan.Seed ^ 0x2545f4914f6cdd1d)),
	}, nil
}

// Factory adapts the plan to fpga.Config.NewInjector; each board built
// from the config gets a fresh, identically seeded injector.
func (p Plan) Factory() (func() fpga.Injector, error) {
	if _, err := New(p); err != nil {
		return nil, err
	}
	return func() fpga.Injector {
		in, _ := New(p)
		return in
	}, nil
}

// MustFactory is Factory for statically known-good plans.
func (p Plan) MustFactory() func() fpga.Injector {
	f, err := p.Factory()
	if err != nil {
		panic(err)
	}
	return f
}

// ReconfigAttempt implements fpga.Injector. The first triggered
// transient or fatal fault decides the class; CAP stalls accumulate
// independently.
func (in *Injector) ReconfigAttempt(now sim.Time, slot, attempt int) fpga.ReconfigOutcome {
	out := fpga.ReconfigOutcome{}
	for _, f := range in.plan.Faults {
		if !f.active(now) || !f.matchSlot(slot) {
			continue
		}
		switch f.Kind {
		case TransientCRC, SDReadError:
			// One draw per matching fault keeps the stream aligned
			// regardless of earlier outcomes.
			hit := in.reconfig.Float64() < f.Prob
			if hit && out.Class == fpga.FaultNone {
				if f.Kind == TransientCRC {
					out.Class = fpga.FaultCRC
				} else {
					out.Class = fpga.FaultSD
				}
			}
		case PermanentSlot:
			// An attempt on a slot that is past its failure time dies
			// fatally even if the hypervisor has not reaped it yet.
			out.Class = fpga.FaultFatal
		case CAPStall:
			if in.reconfig.Float64() < f.Prob {
				out.Stall += f.Stall
			}
		}
	}
	return out
}

// Exec implements fpga.Injector. Hangs dominate slowdowns; concurrent
// slowdowns multiply.
func (in *Injector) Exec(now sim.Time, app string, task, slot int) fpga.ExecOutcome {
	out := fpga.ExecOutcome{Factor: 1}
	for _, f := range in.plan.Faults {
		if !f.active(now) || !f.matchExec(app, task) || !f.matchSlot(slot) {
			continue
		}
		switch f.Kind {
		case TaskHang:
			if in.exec.Float64() < f.Prob {
				out.Hang = true
			}
		case TaskSlowdown:
			if in.exec.Float64() < f.Prob {
				out.Factor *= f.Factor
			}
		}
	}
	return out
}

// Checkpoint implements fpga.Injector: one probe per restore
// attempt. Lost dominates corrupt; one draw per matching fault keeps the
// stream aligned regardless of earlier outcomes.
func (in *Injector) Checkpoint(now sim.Time, app string, task, slot int) fpga.CheckpointOutcome {
	out := fpga.CheckpointOutcome{}
	for _, f := range in.plan.Faults {
		if !f.active(now) || !f.matchExec(app, task) || !f.matchSlot(slot) {
			continue
		}
		switch f.Kind {
		case CheckpointLost:
			if in.ckpt.Float64() < f.Prob {
				out.Lost = true
			}
		case CheckpointCorrupt:
			if in.ckpt.Float64() < f.Prob {
				out.Corrupt = true
			}
		}
	}
	return out
}

// BoardEvent is one board-level fault extracted from a plan for the
// fleet health layer: a crash or hang at At (with optional Recover), or
// a degrade over [At, Until).
type BoardEvent struct {
	Kind    Kind
	Board   int
	At      sim.Time
	Until   sim.Time // BoardDegrade window end (0 = open)
	Recover sim.Time // BoardCrash/BoardHang revival time (0 = never)
	Factor  float64  // BoardDegrade multiplier
}

// BoardEvents extracts the plan's board-level faults in deterministic
// order (time, then board index). Slot/app/checkpoint faults stay with
// the per-board injector; board events are consumed by the cluster and
// serverless health monitors instead.
func (p Plan) BoardEvents() []BoardEvent {
	var out []BoardEvent
	for _, f := range p.Faults {
		if !f.Kind.boardScoped() {
			continue
		}
		out = append(out, BoardEvent{
			Kind: f.Kind, Board: f.Board, At: f.From,
			Until: f.Until, Recover: f.Recover, Factor: f.Factor,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Board < out[j].Board
	})
	return out
}

// PermanentFailures implements fpga.Injector.
func (in *Injector) PermanentFailures() []fpga.SlotFailure {
	var out []fpga.SlotFailure
	for _, f := range in.plan.Faults {
		if f.Kind == PermanentSlot {
			out = append(out, fpga.SlotFailure{Slot: f.Slot, At: f.From})
		}
	}
	return out
}
