package nimblock

import (
	"time"

	"nimblock/internal/admit"
	"nimblock/internal/sim"
)

// AdmissionConfig bounds what a Cluster or Platform accepts. The zero
// value of every field disables that policy; a nil *AdmissionConfig on
// ClusterConfig/ServerlessConfig disables admission control entirely
// (everything is accepted, the pre-admission behavior).
type AdmissionConfig struct {
	// Capacity bounds admitted-but-unfinished submissions. When the
	// queue is full, the lowest-priority, newest waiting submission
	// (possibly the arrival itself) is shed. 0 = unbounded.
	Capacity int
	// MaxInFlight bounds submissions dispatched to boards concurrently;
	// admitted work beyond it waits in the admission queue where it can
	// still be displaced by higher-priority arrivals. 0 = dispatch
	// immediately.
	MaxInFlight int
	// DeadlineFactor arms deadline admission for work without an
	// explicit SLO: the implied budget is DeadlineFactor x the
	// submission's single-slot estimate. 0 = no implied deadline.
	DeadlineFactor float64
	// Quotas hard-caps concurrently admitted submissions per tenant.
	Quotas map[string]int
	// Weights sets tenants' relative shares of a full admission queue
	// (unlisted tenants weigh 1); over-share tenants are shed first.
	Weights map[string]float64
}

// internal converts the facade config for internal front-ends.
func (a *AdmissionConfig) internal() *admit.Config {
	if a == nil {
		return nil
	}
	return &admit.Config{
		Capacity:       a.Capacity,
		MaxInFlight:    a.MaxInFlight,
		DeadlineFactor: a.DeadlineFactor,
		Quotas:         a.Quotas,
		Weights:        a.Weights,
	}
}

// AdmissionStats reports an admission controller's lifetime counters.
// Conservation: Offered == Admitted + Shed - Evicted + RejectedDeadline
// + RejectedQuota, where Shed includes the Evicted (admitted first,
// displaced later).
type AdmissionStats struct {
	Offered          int
	Admitted         int
	Shed             int
	Evicted          int
	RejectedDeadline int
	RejectedQuota    int
	Dispatched       int
	Completed        int
	PeakQueueDepth   int
	PeakInFlight     int
}

func admissionStats(s admit.Stats) AdmissionStats {
	return AdmissionStats{
		Offered:          s.Offered,
		Admitted:         s.Admitted,
		Shed:             s.Shed,
		Evicted:          s.Evicted,
		RejectedDeadline: s.RejectedDeadline,
		RejectedQuota:    s.RejectedQuota,
		Dispatched:       s.Dispatched,
		Completed:        s.Completed,
		PeakQueueDepth:   s.PeakQueueDepth,
		PeakInFlight:     s.PeakInFlight,
	}
}

// SubmitOptions carries a submission's admission attributes.
type SubmitOptions struct {
	// Tenant attributes the submission for quotas and fair sharing.
	Tenant string
	// SLO is the latency budget for deadline admission; 0 falls back to
	// AdmissionConfig.DeadlineFactor.
	SLO time.Duration
	// Weight is the tenant's service weight for fairness-aware
	// scheduling (AlgoNimblockEnergy); 0 means 1. A negative, NaN or
	// infinite weight is rejected by SubmitWith.
	Weight float64
}

func (o SubmitOptions) sloSim() sim.Duration { return sim.FromStd(o.SLO) }
