package fpga

import "nimblock/internal/sim"

// FaultClass classifies the outcome of one reconfiguration attempt.
type FaultClass int

const (
	// FaultNone means the attempt succeeded.
	FaultNone FaultClass = iota
	// FaultCRC is a transient CRC mismatch on the configuration stream;
	// the attempt is retryable.
	FaultCRC
	// FaultSD is a transient SD-card read error while staging the
	// bitstream into DDR; the attempt is retryable.
	FaultSD
	// FaultFatal is a permanent failure of the reconfigurable region;
	// the slot goes offline and never returns.
	FaultFatal
)

// String names the class for traces and errors.
func (c FaultClass) String() string {
	switch c {
	case FaultNone:
		return "none"
	case FaultCRC:
		return "crc"
	case FaultSD:
		return "sd-read"
	case FaultFatal:
		return "fatal"
	default:
		return "unknown"
	}
}

// ReconfigOutcome is the injector's verdict on one reconfiguration
// attempt.
type ReconfigOutcome struct {
	// Class is the fault injected, or FaultNone.
	Class FaultClass
	// Stall is extra CAP latency charged to the attempt (a stalled or
	// congested configuration port). Applies to faulted attempts too.
	Stall sim.Duration
}

// ExecOutcome is the injector's verdict on one task-item execution.
type ExecOutcome struct {
	// Hang makes the item never complete on its own; only a hypervisor
	// watchdog can recover the slot.
	Hang bool
	// Factor > 1 multiplies the item's execution latency (a degraded or
	// thermally throttled kernel). Values <= 1 mean nominal speed.
	Factor float64
}

// SlotFailure is a pre-planned permanent slot failure.
type SlotFailure struct {
	Slot int
	At   sim.Time
}

// Injector is the fault-decision surface consulted by the virtual
// hardware (per reconfiguration attempt) and by the hypervisor (per
// item launch and checkpoint restore, plus scheduled permanent
// failures). Implementations must be deterministic functions of their
// seed and the probe sequence so simulations stay bit-for-bit
// reproducible.
type Injector interface {
	// ReconfigAttempt is consulted once per attempt (attempt 0 is the
	// first try) before the stream is charged to the CAP.
	ReconfigAttempt(now sim.Time, slot, attempt int) ReconfigOutcome
	// Exec is consulted once per item launch.
	Exec(now sim.Time, app string, task, slot int) ExecOutcome
	// Checkpoint is consulted once per checkpoint restore attempt.
	Checkpoint(now sim.Time, app string, task, slot int) CheckpointOutcome
	// PermanentFailures lists slot failures scheduled at known times so
	// the hypervisor can take the slots down even while they run.
	PermanentFailures() []SlotFailure
}

// CheckpointOutcome is the injector's verdict on one checkpoint restore
// attempt. Integrity is probed at restore time (not at save time): a
// snapshot that is never needed again cannot hurt the schedule.
type CheckpointOutcome struct {
	// Lost means the snapshot is gone (e.g. backing store failure) and
	// the restore transfer never starts; the item re-executes from
	// scratch immediately.
	Lost bool
	// Corrupt means the snapshot streams back through the CAP but fails
	// validation afterwards; the transfer time is spent, then the item
	// re-executes from scratch.
	Corrupt bool
}
