package sched

import (
	"slices"

	"nimblock/internal/sim"
)

// PriorityLevels are the three increasing priority levels used throughout
// the paper: low, medium, high.
var PriorityLevels = []int{1, 3, 9}

// DefaultAlpha scales token accumulation per unit of normalized
// performance degradation.
const DefaultAlpha = 1.0

// TokenPool implements the PREMA token accumulation strategy shared by
// the PREMA comparator and the Nimblock algorithm (Algorithm 1):
//
//   - a newly arrived application starts with tokens equal to its priority;
//   - waiting applications accumulate tokens proportional to priority and
//     normalized performance degradation;
//   - the candidate threshold is the maximum token count rounded down to
//     the nearest priority level, and applications at or above it are
//     candidates.
//
// Degradation is normalized by the HLS-estimated isolated batch latency,
// so short applications degrade (and therefore accumulate tokens) faster
// than long ones for the same wait — PREMA's intent.
//
// Each application's accrual state (whether it has been given its
// initial tokens, and when it last accrued) lives on the App itself.
// Every app is scheduled by exactly one policy instance and leaves the
// pending list for good when it retires, so the pool keeps no per-app
// state and has nothing to forget.
type TokenPool struct {
	// Alpha scales accumulation; DefaultAlpha if zero-constructed via
	// NewTokenPool.
	Alpha float64
}

// NewTokenPool returns a pool with the default alpha.
func NewTokenPool() *TokenPool {
	return &TokenPool{Alpha: DefaultAlpha}
}

// Accumulate initializes tokens for new applications and accrues tokens
// for waiting ones, integrating degradation since each one's previous
// accrual. It then recomputes the candidate pool.
func (p *TokenPool) Accumulate(now sim.Time, apps []*App) {
	for _, a := range apps {
		if !a.tokenSeen {
			// Arrival queue -> pending queue: initial tokens = priority.
			a.Tokens = float64(a.Priority)
			a.tokenSeen, a.tokenAt = true, now
			continue
		}
		dt := now.Sub(a.tokenAt)
		if dt <= 0 {
			continue
		}
		// The application latency estimate is the sum of task latency
		// estimates over the task-graph (Section 4.1) — per item, not
		// batch-scaled, so large batches do not slow token accrual.
		est := a.Report.AppLatency()
		if est <= 0 {
			est = 1
		}
		degradation := float64(dt) / float64(est)
		a.Tokens += p.Alpha * float64(a.Priority) * degradation
		a.tokenAt = now
	}
	p.updateCandidates(now, apps)
}

// floorPriority rounds tokens down to the nearest priority level; tokens
// below the lowest level floor to zero.
func floorPriority(tokens float64) float64 {
	out := 0.0
	for _, l := range PriorityLevels {
		if tokens >= float64(l) {
			out = float64(l)
		}
	}
	return out
}

// updateCandidates applies PREMA thresholding: threshold is the maximum
// token count floored to a priority level; apps at or above it are
// candidates. (Algorithm 1 line 9 compares strictly; we use >= so the
// pool is never empty while apps wait — see DESIGN.md.)
func (p *TokenPool) updateCandidates(now sim.Time, apps []*App) {
	threshold := 0.0
	for _, a := range apps {
		if f := floorPriority(a.Tokens); f > threshold {
			threshold = f
		}
	}
	for _, a := range apps {
		if a.Tokens >= threshold {
			if !a.Candidate {
				a.Candidate = true
				a.CandidateSince = now
			}
		} else {
			a.Candidate = false
		}
	}
}

// Candidates returns the candidate applications ordered by age in the
// pool (earliest CandidateSince first, ties by arrival then ID): the
// order Nimblock allocates and selects in.
func Candidates(apps []*App) []*App {
	return CandidatesInto(nil, apps)
}

// CandidatesInto is Candidates appending into dst (reset to length zero
// first), letting policies reuse a scratch slice across scheduling
// opportunities instead of allocating per call.
func CandidatesInto(dst []*App, apps []*App) []*App {
	out := dst[:0]
	for _, a := range apps {
		if a.Candidate {
			out = append(out, a)
		}
	}
	slices.SortStableFunc(out, func(x, y *App) int {
		if x.CandidateSince != y.CandidateSince {
			if x.CandidateSince < y.CandidateSince {
				return -1
			}
			return 1
		}
		if x.Arrival != y.Arrival {
			if x.Arrival < y.Arrival {
				return -1
			}
			return 1
		}
		if x.ID < y.ID {
			return -1
		}
		if x.ID > y.ID {
			return 1
		}
		return 0
	})
	return out
}
