// Package metrics computes the statistics reported in the paper's
// evaluation: average and tail response-time reductions normalized to the
// no-sharing baseline, and deadline-violation sweeps over the deadline
// scaling factor Ds.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) over per-tenant
// allocations: 1 when every tenant receives identical service, 1/n when
// a single tenant monopolizes the resource. Empty or all-zero input
// yields 1 (nothing was shared, so nothing was unfair).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Percentile returns the p-th percentile (linear interpolation between
// closest ranks); p is clamped to [0,100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Reductions pairs each event's response under an algorithm with its
// response under the baseline and returns per-event reduction factors
// baseline/algo (higher is better). Results are matched by AppID, which
// is stable because every algorithm replays the identical sequence.
func Reductions(base, algo []hv.Result) ([]float64, error) {
	if len(base) != len(algo) {
		return nil, fmt.Errorf("metrics: %d baseline results vs %d algorithm results", len(base), len(algo))
	}
	byID := make(map[int64]hv.Result, len(base))
	for _, r := range base {
		byID[r.AppID] = r
	}
	out := make([]float64, 0, len(algo))
	for _, r := range algo {
		b, ok := byID[r.AppID]
		if !ok {
			return nil, fmt.Errorf("metrics: event %d missing from baseline results", r.AppID)
		}
		if r.Response <= 0 || b.Response <= 0 {
			return nil, fmt.Errorf("metrics: non-positive response for event %d", r.AppID)
		}
		out = append(out, float64(b.Response)/float64(r.Response))
	}
	return out, nil
}

// NormalizedResponses returns per-event algo/baseline response ratios
// (lower is better); the tail of this distribution is Figure 6's metric.
func NormalizedResponses(base, algo []hv.Result) ([]float64, error) {
	red, err := Reductions(base, algo)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(red))
	for i, r := range red {
		out[i] = 1 / r
	}
	return out, nil
}

// DeadlineSpec parameterizes the Section 5.4 sweep.
type DeadlineSpec struct {
	// From, To, Step define the Ds grid (paper: 1 to 20 at 0.25).
	From, To, Step float64
	// Priority restricts the analysis to one priority level; 0 includes
	// all. The paper focuses on high-priority applications (9).
	Priority int
}

// DefaultDeadlineSpec matches the paper.
func DefaultDeadlineSpec() DeadlineSpec {
	return DeadlineSpec{From: 1, To: 20, Step: 0.25, Priority: 9}
}

// DeadlinePoint is one sweep sample.
type DeadlinePoint struct {
	Ds            float64
	ViolationRate float64 // fraction of applications missing Ds x single-slot latency
}

// DeadlineSweep computes the violation rate across the Ds grid. The
// single-slot latency of each event is supplied by the caller (it depends
// on the board, graph, and batch but not on the algorithm).
func DeadlineSweep(results []hv.Result, singleSlot map[int64]sim.Duration, spec DeadlineSpec) ([]DeadlinePoint, error) {
	if spec.Step <= 0 || spec.To < spec.From {
		return nil, fmt.Errorf("metrics: bad deadline grid [%v,%v] step %v", spec.From, spec.To, spec.Step)
	}
	var pool []hv.Result
	for _, r := range results {
		if spec.Priority != 0 && r.Priority != spec.Priority {
			continue
		}
		if _, ok := singleSlot[r.AppID]; !ok {
			return nil, fmt.Errorf("metrics: no single-slot latency for event %d", r.AppID)
		}
		pool = append(pool, r)
	}
	var points []DeadlinePoint
	for ds := spec.From; ds <= spec.To+1e-9; ds += spec.Step {
		violations := 0
		for _, r := range pool {
			deadline := sim.Duration(ds * float64(singleSlot[r.AppID]))
			if r.Response > deadline {
				violations++
			}
		}
		rate := 0.0
		if len(pool) > 0 {
			rate = float64(violations) / float64(len(pool))
		}
		points = append(points, DeadlinePoint{Ds: ds, ViolationRate: rate})
	}
	return points, nil
}

// ErrorPoint returns the smallest Ds whose violation rate is at or below
// the threshold (e.g. 0.10 for the paper's 10% error point), or -1 if the
// sweep never reaches it.
func ErrorPoint(points []DeadlinePoint, threshold float64) float64 {
	for _, p := range points {
		if p.ViolationRate <= threshold {
			return p.Ds
		}
	}
	return -1
}

// EffectiveSlots is the time-weighted average usable slot count over
// [0, until], integrated from a recovery timeline (hv.RecoveryStats).
// With no slot losses it equals the board size; each failure bends the
// average down in proportion to how long the run continued without the
// slot. Samples after the window are ignored.
func EffectiveSlots(timeline []hv.SlotSample, until sim.Time) float64 {
	if len(timeline) == 0 || until <= 0 {
		return 0
	}
	var weighted float64
	for i, s := range timeline {
		if s.At >= until {
			break
		}
		end := until
		if i+1 < len(timeline) && timeline[i+1].At < end {
			end = timeline[i+1].At
		}
		weighted += float64(s.Usable) * float64(end.Sub(s.At))
	}
	return weighted / float64(until)
}

// Responses extracts response times in seconds.
func Responses(rs []hv.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Response.Seconds()
	}
	return out
}

// ByApp groups results by application name.
func ByApp(rs []hv.Result) map[string][]hv.Result {
	m := map[string][]hv.Result{}
	for _, r := range rs {
		m[r.App] = append(m[r.App], r)
	}
	return m
}
