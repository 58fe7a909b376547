// Package admit implements online admission control for the multi-FPGA
// front-ends (internal/cluster, internal/faas).
//
// The schedulers in internal/sched arbitrate among *admitted*
// applications; nothing bounds what the front-ends accept in the first
// place, so under overload the system's backlog — and with it the
// response time of everything already admitted — grows without limit.
// The controller here sits in front of dispatch and applies four
// policies, all online at arrival time:
//
//   - a bounded admission queue: admitted-but-unfinished work never
//     exceeds Capacity;
//   - priority-aware load shedding: when the queue is full, the
//     lowest-priority, newest waiting submission (possibly the arrival
//     itself) is rejected;
//   - deadline admission: an arrival whose HLS-estimated completion,
//     given the current outstanding work, cannot meet its SLO is
//     rejected immediately rather than admitted to miss it;
//   - per-tenant quotas and weighted fair sharing of admission slots:
//     hard caps always apply, and when the queue is full tenants over
//     their weighted share are shed first.
//
// The controller is pure decision logic driven by its caller at
// simulation instants; it schedules nothing itself, so front-ends stay
// deterministic and bit-for-bit reproducible.
package admit

import (
	"fmt"
	"math"

	"nimblock/internal/obs"
	"nimblock/internal/sim"
)

// Config parameterizes a Controller.
type Config struct {
	// Capacity bounds admitted-but-unfinished submissions (waiting in
	// the admission queue plus dispatched to boards). 0 means unbounded:
	// no shedding ever occurs.
	Capacity int
	// MaxInFlight bounds submissions dispatched to boards concurrently;
	// admitted work beyond it waits in the admission queue, where a
	// higher-priority arrival can still displace it. 0 means unbounded —
	// admitted work dispatches immediately and shedding degenerates to
	// tail drop (the arrival itself is rejected when full).
	MaxInFlight int
	// DeadlineFactor, when positive, arms deadline admission for
	// requests that carry no explicit SLO: the implied SLO is
	// DeadlineFactor x the request's single-slot estimate, the same
	// slack notion as the paper's deadline analysis (Section 5.4).
	DeadlineFactor float64
	// Quotas caps concurrently admitted submissions per tenant; tenants
	// without an entry are uncapped. Applies before any queue-capacity
	// consideration.
	Quotas map[string]int
	// Weights sets tenants' relative shares of a full admission queue.
	// Each must be positive and finite; unlisted tenants weigh 1. While
	// the queue is not full every tenant may exceed its share (the
	// controller is work-conserving); once full, entries of over-share
	// tenants are shed first.
	Weights map[string]float64
	// Registry, when non-nil, receives admission counters and queue
	// gauges (admit_* instruments) for live observation.
	Registry *obs.Registry
}

// Outcome classifies one admission decision.
type Outcome int

const (
	// Admitted means the submission entered the admission queue.
	Admitted Outcome = iota
	// Shed means the queue was full and the submission lost the
	// priority/fair-share comparison (or displaced someone else who
	// did — see Offer's evicted result).
	Shed
	// RejectedDeadline means the estimated completion missed the SLO.
	RejectedDeadline
	// RejectedQuota means the tenant's hard quota was exhausted.
	RejectedQuota
)

// String names the outcome for results and reports.
func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case Shed:
		return "shed"
	case RejectedDeadline:
		return "deadline"
	case RejectedQuota:
		return "quota"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Request describes one arrival for admission.
type Request struct {
	// Tenant attributes the work for quotas and fair sharing; "" is the
	// shared default tenant.
	Tenant string
	// Priority is the submission's priority level (higher wins shed
	// comparisons).
	Priority int
	// Estimate is the HLS-derived single-slot work estimate.
	Estimate sim.Duration
	// SLO is the latency budget measured from arrival; 0 derives one
	// from Config.DeadlineFactor (or disables the deadline test when
	// that is unset).
	SLO sim.Duration
	// Arrival is the admission instant.
	Arrival sim.Time
	// Payload is opaque caller state echoed on the Ticket (the
	// front-end's submission record).
	Payload any
}

// Ticket is the handle for one admitted submission.
type Ticket struct {
	id         int64
	req        Request
	dispatched bool
}

// Request returns the request the ticket was issued for.
func (t *Ticket) Request() Request { return t.req }

// Stats aggregates a controller's lifetime accounting. Conservation
// invariant: Offered == Admitted + Shed + RejectedDeadline +
// RejectedQuota, and Admitted == Completed once the system drains.
type Stats struct {
	Offered          int
	Admitted         int
	Shed             int // includes Evicted
	Evicted          int // admitted first, displaced later
	RejectedDeadline int
	RejectedQuota    int
	Dispatched       int
	Completed        int
	PeakQueueDepth   int
	PeakInFlight     int
}

// Controller makes admission decisions and tracks the admission queue.
// It is not safe for concurrent use; like everything else in the
// simulation it runs single-threaded on the virtual clock.
type Controller struct {
	cfg      Config
	queue    []*Ticket // admitted, not yet dispatched, arrival order
	inFlight int
	usage    map[string]int // tenant -> waiting + in-flight
	nextID   int64
	stats    Stats

	cAdmitted, cShed, cDeadline, cQuota *obs.Counter
	cDispatched, cCompleted             *obs.Counter
	gQueue, gInFlight                   *obs.Gauge
}

// New validates the configuration and builds a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("admit: negative capacity %d", cfg.Capacity)
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("admit: negative max in-flight %d", cfg.MaxInFlight)
	}
	if cfg.DeadlineFactor < 0 {
		return nil, fmt.Errorf("admit: negative deadline factor %g", cfg.DeadlineFactor)
	}
	for t, q := range cfg.Quotas {
		if q < 1 {
			return nil, fmt.Errorf("admit: tenant %q quota %d < 1", t, q)
		}
	}
	for t, w := range cfg.Weights {
		if !(w > 0 && w <= math.MaxFloat64) {
			return nil, fmt.Errorf("admit: tenant %q weight %g is not positive and finite", t, w)
		}
	}
	c := &Controller{cfg: cfg, usage: map[string]int{}}
	if r := cfg.Registry; r != nil {
		c.cAdmitted = r.Counter("admit_admitted_total", "submissions admitted to the queue")
		c.cShed = r.Counter("admit_shed_total", "submissions shed at a full admission queue (including evictions)")
		c.cDeadline = r.Counter("admit_rejected_deadline_total", "submissions rejected because their SLO was unreachable")
		c.cQuota = r.Counter("admit_rejected_quota_total", "submissions rejected on an exhausted tenant quota")
		c.cDispatched = r.Counter("admit_dispatched_total", "admitted submissions released to boards")
		c.cCompleted = r.Counter("admit_completed_total", "dispatched submissions that completed")
		c.gQueue = r.Gauge("admit_queue_depth", "submissions admitted and waiting for dispatch")
		c.gInFlight = r.Gauge("admit_inflight", "submissions dispatched and not yet completed")
	}
	return c, nil
}

// Offer decides one arrival. load is the caller's view of outstanding
// board work (the least-loaded board's estimate). On Admitted the
// returned ticket is queued — the caller should immediately drain
// Dispatchable. evicted, when non-nil, is a previously admitted,
// not-yet-dispatched ticket displaced to make room: the caller must
// record its submission as shed.
func (c *Controller) Offer(req Request, load sim.Duration) (t *Ticket, evicted *Ticket, out Outcome) {
	c.stats.Offered++
	if q, ok := c.cfg.Quotas[req.Tenant]; ok && c.usage[req.Tenant] >= q {
		c.stats.RejectedQuota++
		c.inc(c.cQuota)
		return nil, nil, RejectedQuota
	}
	if slo := c.slo(req); slo > 0 {
		// Everything admitted ahead of this arrival serializes in front
		// of it in the worst case: the least-loaded board's outstanding
		// work plus the queue's own backlog.
		if load+c.queuedEstimate()+req.Estimate > slo {
			c.stats.RejectedDeadline++
			c.inc(c.cDeadline)
			return nil, nil, RejectedDeadline
		}
	}
	if c.cfg.Capacity > 0 && len(c.queue)+c.inFlight >= c.cfg.Capacity {
		victim := c.pickVictim(req)
		if victim == nil {
			c.stats.Shed++
			c.inc(c.cShed)
			return nil, nil, Shed
		}
		c.remove(victim)
		c.usage[victim.req.Tenant]--
		c.stats.Shed++
		c.stats.Evicted++
		c.inc(c.cShed)
		evicted = victim
	}
	c.nextID++
	t = &Ticket{id: c.nextID, req: req}
	c.queue = append(c.queue, t)
	c.usage[req.Tenant]++
	c.stats.Admitted++
	c.inc(c.cAdmitted)
	if d := len(c.queue); d > c.stats.PeakQueueDepth {
		c.stats.PeakQueueDepth = d
	}
	c.gauges()
	return t, evicted, Admitted
}

// Dispatchable pops tickets cleared to dispatch now — highest priority
// first, oldest arrival breaking ties — until the in-flight window
// (MaxInFlight) is full. The caller owns dispatching them and must
// Release each one on completion.
func (c *Controller) Dispatchable() []*Ticket {
	var out []*Ticket
	for len(c.queue) > 0 && (c.cfg.MaxInFlight == 0 || c.inFlight < c.cfg.MaxInFlight) {
		best := 0
		for i := 1; i < len(c.queue); i++ {
			if c.before(c.queue[i], c.queue[best]) {
				best = i
			}
		}
		t := c.queue[best]
		c.queue = append(c.queue[:best], c.queue[best+1:]...)
		t.dispatched = true
		c.inFlight++
		c.stats.Dispatched++
		c.inc(c.cDispatched)
		if c.inFlight > c.stats.PeakInFlight {
			c.stats.PeakInFlight = c.inFlight
		}
		out = append(out, t)
	}
	if out != nil {
		c.gauges()
	}
	return out
}

// before orders dispatch: higher priority, then earlier arrival, then
// admission order.
func (c *Controller) before(a, b *Ticket) bool {
	if a.req.Priority != b.req.Priority {
		return a.req.Priority > b.req.Priority
	}
	if a.req.Arrival != b.req.Arrival {
		return a.req.Arrival < b.req.Arrival
	}
	return a.id < b.id
}

// Release retires a dispatched ticket, freeing its admission slot. The
// caller should drain Dispatchable afterwards: the freed slot may clear
// queued work for dispatch.
func (c *Controller) Release(t *Ticket) {
	if t == nil || !t.dispatched {
		return
	}
	t.dispatched = false
	c.inFlight--
	c.usage[t.req.Tenant]--
	c.stats.Completed++
	c.inc(c.cCompleted)
	c.gauges()
}

// QueueDepth reports submissions admitted and waiting for dispatch.
func (c *Controller) QueueDepth() int { return len(c.queue) }

// InFlight reports submissions dispatched and not yet completed.
func (c *Controller) InFlight() int { return c.inFlight }

// Stats returns a copy of the lifetime counters.
func (c *Controller) Stats() Stats { return c.stats }

// slo resolves a request's effective latency budget.
func (c *Controller) slo(req Request) sim.Duration {
	if req.SLO > 0 {
		return req.SLO
	}
	if c.cfg.DeadlineFactor > 0 {
		return sim.Duration(float64(req.Estimate) * c.cfg.DeadlineFactor)
	}
	return 0
}

// queuedEstimate sums the single-slot estimates of waiting tickets.
func (c *Controller) queuedEstimate() sim.Duration {
	var total sim.Duration
	for _, t := range c.queue {
		total += t.req.Estimate
	}
	return total
}

// pickVictim chooses what to shed when the queue is full: among the
// waiting tickets and the newcomer, the entry of an over-share tenant
// loses first, then the lowest priority, then the newest arrival. A nil
// result means the newcomer itself is the victim (reject it). Already
// dispatched work is never a candidate — boards cannot take a
// submission back.
func (c *Controller) pickVictim(req Request) *Ticket {
	worst := (*Ticket)(nil) // nil stands for the newcomer
	worstOver := c.overShare(req.Tenant, c.usage[req.Tenant]+1)
	worstPrio := req.Priority
	worstArrival := req.Arrival
	worstID := c.nextID + 1 // newer than everything queued
	for _, t := range c.queue {
		over := c.overShare(t.req.Tenant, c.usage[t.req.Tenant])
		switch {
		case over != worstOver:
			if !over {
				continue
			}
		case t.req.Priority != worstPrio:
			if t.req.Priority > worstPrio {
				continue
			}
		case t.req.Arrival != worstArrival:
			if t.req.Arrival < worstArrival {
				continue
			}
		case t.id < worstID:
			continue
		}
		worst, worstOver, worstPrio, worstArrival, worstID = t, over, t.req.Priority, t.req.Arrival, t.id
	}
	return worst
}

// overShare reports whether a tenant holding `usage` admission slots
// exceeds its weighted fair share of the queue capacity. Shares are
// computed over tenants currently holding slots (weight 1 unless
// configured), so a lone tenant always owns the whole queue and fair
// sharing only bites under actual multi-tenant contention.
func (c *Controller) overShare(tenant string, usage int) bool {
	if c.cfg.Capacity == 0 {
		return false
	}
	var sum float64
	active := 0
	seen := false
	for t, n := range c.usage {
		if n <= 0 && t != tenant {
			continue
		}
		if t == tenant {
			seen = true
		}
		active++
		sum += c.weight(t)
	}
	if !seen {
		active++
		sum += c.weight(tenant)
	}
	if active < 2 {
		return false
	}
	share := float64(c.cfg.Capacity) * c.weight(tenant) / sum
	return float64(usage) > share
}

// weight looks up a tenant's configured weight (default 1).
func (c *Controller) weight(tenant string) float64 {
	if w, ok := c.cfg.Weights[tenant]; ok {
		return w
	}
	return 1
}

// remove deletes a ticket from the waiting queue.
func (c *Controller) remove(victim *Ticket) {
	for i, t := range c.queue {
		if t == victim {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// inc bumps a counter when metrics are wired.
func (c *Controller) inc(ctr *obs.Counter) {
	if ctr != nil {
		ctr.Inc()
	}
}

// gauges refreshes the queue-depth and in-flight gauges.
func (c *Controller) gauges() {
	if c.gQueue != nil {
		c.gQueue.Set(float64(len(c.queue)))
	}
	if c.gInFlight != nil {
		c.gInFlight.Set(float64(c.inFlight))
	}
}
