// Package health tracks per-board liveness for a fleet of virtual FPGA
// boards, turning raw fault signals (crashes, hangs, degrades, failed
// dispatches) into a small state machine the cluster and serverless
// front-ends consult before placing work.
//
// Each board moves through healthy → degraded → draining → dead →
// recovering: degraded boards still accept work but lose tie-breaks,
// draining boards finish in-flight work without new placements, dead
// boards trigger failover of their queued and checkpointed work, and
// recovering boards re-admit through a circuit breaker with
// exponentially backed-off, jittered probation.
//
// Liveness is heartbeat-style but derived from simulated event progress
// rather than wall-clock pings: a board with outstanding work whose
// progress counter stops advancing across poll intervals is first
// suspected (draining) and then declared dead, exactly how a freeze
// (board-hang) is distinguished from a slow board.
package health

import (
	"fmt"
	"math/rand"

	"nimblock/internal/obs"
	"nimblock/internal/sim"
)

// State is one node of the board health state machine.
type State int

const (
	// Healthy boards accept new work.
	Healthy State = iota
	// Degraded boards accept new work but rank behind healthy ones in
	// placement; a board-degrade fault puts a board here.
	Degraded
	// Draining boards finish in-flight work but take no new placements:
	// either liveness has begun to suspect them, or an operator/monitor
	// asked for a graceful drain.
	Draining
	// Dead boards lost everything: their work is failed over and the
	// board waits for scheduled recovery (if any).
	Dead
	// Recovering boards came back from Dead but sit behind the circuit
	// breaker: placeable only after the backoff expires, and promoted to
	// Healthy only after probation consecutive successes.
	Recovering
)

// String names the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	case Dead:
		return "dead"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config tunes the health tracker. The zero value selects the defaults
// below via withDefaults.
type Config struct {
	// LivenessInterval is the progress-poll period (default 500ms).
	LivenessInterval sim.Duration
	// LivenessMisses is how many consecutive static-progress polls (with
	// work outstanding) declare a board dead; fewer misses only suspend
	// placements (default 3).
	LivenessMisses int
	// BackoffBase and BackoffMax bound the re-admission backoff: the
	// n-th breaker opening waits min(Base<<(n-1), Max), jittered ±20%
	// (defaults 2s and 60s).
	BackoffBase sim.Duration
	BackoffMax  sim.Duration
	// Seed derives each tracker's jitter stream; tracker i draws from
	// Seed mixed with i so boards jitter independently.
	Seed int64
}

// The breaker's fixed tuning: every backoff is jittered by a factor
// drawn uniformly from [1-backoffJitter, 1+backoffJitter], and a
// recovering board needs probation consecutive successful retirements
// before it counts as healthy again.
const (
	backoffJitter = 0.2
	probation     = 2
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.LivenessInterval <= 0 {
		c.LivenessInterval = 500 * sim.Millisecond
	}
	if c.LivenessMisses <= 0 {
		c.LivenessMisses = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * sim.Second
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 60 * sim.Second
	}
	return c
}

// Options is the shared failover configuration both front-ends accept.
type Options struct {
	// Tracker tunes the per-board health state machine.
	Tracker Config
	// RetryBudget is how many times one submission may be re-dispatched
	// after losing its board before it fails permanently (default 2).
	RetryBudget int
	// HedgePriority, when > 0, hedges submissions with priority >= it:
	// the submission is placed on the two best healthy boards and the
	// slower copy is cancelled when the faster retires.
	HedgePriority int
	// Registry, when non-nil, receives the failover_* counters/gauges.
	Registry *obs.Registry
}

// WithDefaults fills zero fields of the options.
func (o Options) WithDefaults() Options {
	o.Tracker = o.Tracker.withDefaults()
	if o.RetryBudget <= 0 {
		o.RetryBudget = 2
	}
	return o
}

// Tracker is one board's health state machine. It is not safe for
// concurrent use; the simulator is single-threaded per run.
type Tracker struct {
	cfg   Config
	state State
	// degraded overlays Healthy: a degrade fault ranks the board behind
	// clean peers without blocking it.
	degraded bool
	// breaker bookkeeping.
	opens     int // times the breaker has opened
	backoff   sim.Duration
	readmitAt sim.Time
	successes int // consecutive successes while recovering
	// liveness bookkeeping.
	lastProgress uint64
	misses       int
	suspect      bool // draining because liveness suspects a freeze
	rng          *rand.Rand
}

// NewTracker builds a tracker for one board.
func NewTracker(cfg Config, board int) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed ^ int64(board)*0x5e3779b97f4a7c15 ^ 0x5bd1e995)),
	}
}

// State reports the board's current state, folding the degraded overlay
// into Healthy.
func (t *Tracker) State() State {
	if t.state == Healthy && t.degraded {
		return Degraded
	}
	return t.state
}

// Placeable reports whether new work may land on the board now:
// healthy and degraded boards always, recovering boards once the
// breaker backoff has expired, draining and dead boards never.
func (t *Tracker) Placeable(now sim.Time) bool {
	switch t.state {
	case Healthy:
		return true
	case Recovering:
		return now >= t.readmitAt
	default:
		return false
	}
}

// Score ranks placeable boards: 0 for clean (healthy or recovering past
// backoff — an empty revived board must win load-based placement so its
// probation can complete), 1 for degraded. Lower is better.
func (t *Tracker) Score() int {
	if t.state == Healthy && t.degraded {
		return 1
	}
	return 0
}

// MarkDead declares the board dead (crash fault or liveness timeout).
// Every death opens the breaker: the backoff the next revival waits out
// doubles per opening, up to BackoffMax, until the board completes
// probation.
func (t *Tracker) MarkDead() {
	t.state = Dead
	t.suspect = false
	t.misses = 0
	t.opens++
	b := t.cfg.BackoffBase
	for i := 1; i < t.opens && b < t.cfg.BackoffMax; i++ {
		b <<= 1
	}
	if b > t.cfg.BackoffMax {
		b = t.cfg.BackoffMax
	}
	// Deterministic symmetric jitter decorrelates simultaneous revivals.
	j := 1 + backoffJitter*(2*t.rng.Float64()-1)
	t.backoff = sim.Duration(float64(b) * j)
}

// ReportSuccess records one successful retirement, advancing recovery
// probation.
func (t *Tracker) ReportSuccess() {
	if t.state != Recovering {
		return
	}
	t.successes++
	if t.successes >= probation {
		t.state = Healthy
		t.opens = 0
		t.backoff = 0
	}
}

// Revive moves a dead board to Recovering. New placements wait until
// the returned re-admission time (now plus the breaker backoff).
func (t *Tracker) Revive(now sim.Time) sim.Time {
	t.state = Recovering
	t.successes = 0
	t.misses = 0
	t.lastProgress = 0
	t.readmitAt = now + sim.Time(t.backoff)
	return t.readmitAt
}

// Baseline restarts the liveness window: the next poll compares
// against progress instead of the last poll's sample.
func (t *Tracker) Baseline(progress uint64) { t.lastProgress = progress }

// Stalled reports whether the last liveness poll found the board busy
// with no progress.
func (t *Tracker) Stalled() bool { return t.misses > 0 }

// ReadmitAt reports when a recovering board becomes placeable again.
func (t *Tracker) ReadmitAt() sim.Time { return t.readmitAt }

// MarkDegraded and ClearDegraded toggle the degrade overlay.
func (t *Tracker) MarkDegraded() { t.degraded = true }

// ClearDegraded removes the degrade overlay.
func (t *Tracker) ClearDegraded() { t.degraded = false }

// BeginDrain stops new placements while in-flight work finishes.
func (t *Tracker) BeginDrain() {
	if t.state == Healthy {
		t.state = Draining
	}
}

// EndDrain returns a draining board to service.
func (t *Tracker) EndDrain() {
	if t.state == Draining {
		t.state = Healthy
		t.suspect = false
		t.misses = 0
	}
}

// NoteLiveness feeds one poll of the board's monotonic progress
// counter. With work outstanding and no progress since the previous
// poll, the board first becomes suspect (a healthy board drains — no
// new placements) and, after LivenessMisses consecutive static polls,
// dead; a recovering board on probation dies the same way. Progress
// clears suspicion. It returns the state transition the poll caused.
func (t *Tracker) NoteLiveness(progress uint64, busy bool) (died bool) {
	if t.state == Dead {
		return false
	}
	if progress != t.lastProgress || !busy {
		t.lastProgress = progress
		t.misses = 0
		if t.suspect {
			t.suspect = false
			t.EndDrain()
		}
		return false
	}
	t.misses++
	if t.misses >= t.cfg.LivenessMisses {
		t.MarkDead()
		return true
	}
	if !t.suspect && t.state == Healthy {
		t.suspect = true
		t.BeginDrain()
	}
	return false
}
