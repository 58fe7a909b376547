package sched

import (
	"math"
	"slices"

	"nimblock/internal/sim"
)

// PriorityLevels are the three increasing priority levels used throughout
// the paper: low, medium, high.
var PriorityLevels = []int{1, 3, 9}

// alpha scales token accumulation per unit of normalized performance
// degradation (Algorithm 1's alpha).
const alpha = 1.0

// AccrueTokens initializes tokens for new applications and sets every
// waiting one's balance to its closed-form value at now (see tokensAt).
// It then recomputes the candidate pool. This is the PREMA token
// accumulation strategy shared by the PREMA comparator and the Nimblock
// algorithm (Algorithm 1):
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
// initial tokens, and when it was first seen) lives on the App itself.
// Every app is scheduled by exactly one policy instance and leaves the
// pending list for good when it retires, so the only token state a
// policy keeps is its CandidatePool's memo, which runs this pass.
func AccrueTokens(now sim.Time, apps []*App) {
	for _, a := range apps {
		if !a.tokenSeen {
			// Arrival queue -> pending queue: initial tokens = priority.
			a.tokenSeen, a.tokenSince = true, now
		}
		a.Tokens = tokensAt(a, now)
	}
	updateCandidates(now, apps)
}

// tokensAt is the application's balance at t in closed form. A waiting
// application accrues alpha x priority tokens per unit of normalized
// degradation, at a constant rate from the instant it was first seen,
// so
//
//	Tokens(t) = P + alpha*P*(t - t0)/E
//
// with E the application latency estimate: the sum of task latency
// estimates over the task-graph (Section 4.1) — per item, not
// batch-scaled, so large batches do not slow token accrual. The balance
// depends only on t, never on which instants tokens were accrued at, so
// a skipped scheduling call cannot change any later balance.
func tokensAt(a *App, t sim.Time) float64 {
	prio := float64(a.Priority)
	dt := t.Sub(a.tokenSince)
	if dt <= 0 {
		return prio
	}
	return prio + alpha*prio*(float64(dt)/float64(latencyEstimate(a)))
}

// latencyEstimate is the E of tokensAt, at least one microsecond.
func latencyEstimate(a *App) sim.Duration { return max(a.Report.AppLatency(), 1) }

// TokenWake returns the earliest instant at which some application's
// balance reaches the lowest priority level above its current balance:
// no candidate can join or leave the pool, and the threshold cannot
// move, before then unless an application arrives or retires. An
// application that has accrued no tokens yet makes the wake now.
//
// Each application's crossing is memoized on the App, keyed by the
// level it is for, and derived again only when its balance passes that
// level: at most len(PriorityLevels) times per application.
func TokenWake(now sim.Time, apps []*App) sim.Time {
	wake := sim.Never
	for _, a := range apps {
		if !a.tokenSeen {
			return now
		}
		wake = min(wake, crossing(a))
	}
	return wake
}

// crossing is the first instant at which the application's balance
// reaches the lowest priority level above its current balance, or
// sim.Never if it holds the top level. Besides the level, the instant
// depends only on the app's first-seen instant, priority and latency
// estimate, which are fixed once it has accrued tokens, so the memo is
// exact.
func crossing(a *App) sim.Time {
	i := slices.IndexFunc(PriorityLevels, func(l int) bool { return float64(l) > a.Tokens })
	if i < 0 {
		return sim.Never
	}
	if int(a.crossKey) != i+1 {
		a.crossKey, a.crossAt = int8(i+1), crossingAt(a, float64(PriorityLevels[i]))
	}
	return a.crossAt
}

// crossingAt is the first instant at which the application's balance
// reaches level, or sim.Never if that lies beyond the simulated range.
func crossingAt(a *App, level float64) sim.Time {
	// Invert the closed form, then settle on the exact first microsecond
	// at which tokensAt reaches the level: its floating-point evaluation
	// is monotone in t, so the wake is never late by rounding.
	dt := math.Ceil((level/float64(a.Priority) - 1) * float64(latencyEstimate(a)) / alpha)
	if dt >= 1<<60 {
		return sim.Never
	}
	t := a.tokenSince.Add(sim.Duration(dt))
	for tokensAt(a, t) < level {
		t++
	}
	for t > a.tokenSince && tokensAt(a, t-1) >= level {
		t--
	}
	return t
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
func updateCandidates(now sim.Time, apps []*App) {
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

// CandidatesInto returns the candidate applications ordered by age in
// the pool (earliest CandidateSince first, ties by arrival then ID), the
// order Nimblock allocates and selects in. It appends into dst, reset to
// length zero first, so a CandidatePool reuses one slice across its
// derivations.
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
