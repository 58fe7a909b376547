package admit

import (
	"math"
	"strings"
	"testing"

	"nimblock/internal/obs"
	"nimblock/internal/sim"
)

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func req(prio int, arrival sim.Time) Request {
	return Request{Priority: prio, Estimate: sim.Second, Arrival: arrival}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Capacity: -1},
		{MaxInFlight: -2},
		{DeadlineFactor: -0.5},
		{Quotas: map[string]int{"a": 0}},
		{Weights: map[string]float64{"a": 0}},
		{Weights: map[string]float64{"a": -3}},
		{Weights: map[string]float64{"a": math.NaN()}},
		{Weights: map[string]float64{"a": math.Inf(1)}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestUnboundedAdmitsEverything(t *testing.T) {
	c := mustNew(t, Config{})
	for i := 0; i < 100; i++ {
		_, evicted, out := c.Offer(req(1, sim.Time(i)), 0)
		if out != Admitted || evicted != nil {
			t.Fatalf("offer %d: %v evicted=%v", i, out, evicted)
		}
	}
	if got := len(c.Dispatchable()); got != 100 {
		t.Fatalf("dispatched %d, want 100", got)
	}
	if s := c.Stats(); s.Offered != 100 || s.Admitted != 100 || s.Dispatched != 100 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCapacityTailDrop(t *testing.T) {
	// No MaxInFlight: everything admitted dispatches immediately, so a
	// full queue can only drop the arrival itself.
	c := mustNew(t, Config{Capacity: 2})
	for i := 0; i < 2; i++ {
		if _, _, out := c.Offer(req(9, sim.Time(i)), 0); out != Admitted {
			t.Fatalf("offer %d: %v", i, out)
		}
		c.Dispatchable()
	}
	// Higher priority than everything in flight — still shed: dispatched
	// work cannot be taken back from a board.
	if _, evicted, out := c.Offer(req(9, 2), 0); out != Shed || evicted != nil {
		t.Fatalf("full offer: %v evicted=%v", out, evicted)
	}
	if s := c.Stats(); s.Shed != 1 || s.Evicted != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPriorityEviction(t *testing.T) {
	// Window of 1: one dispatched, rest wait and are evictable.
	c := mustNew(t, Config{Capacity: 3, MaxInFlight: 1})
	c.Offer(req(3, 0), 0)
	c.Dispatchable() // now in flight
	tLow, _, _ := c.Offer(req(1, 1), 0)
	c.Offer(req(3, 2), 0)
	// Queue full. A high-priority arrival displaces the low-priority
	// waiter, not the same-priority one.
	tNew, evicted, out := c.Offer(req(9, 3), 0)
	if out != Admitted || evicted != tLow || tNew == nil {
		t.Fatalf("out=%v evicted=%v", out, evicted)
	}
	// Another low-priority arrival now loses to everything queued.
	if _, evicted, out := c.Offer(req(1, 4), 0); out != Shed || evicted != nil {
		t.Fatalf("out=%v evicted=%v", out, evicted)
	}
	s := c.Stats()
	if s.Shed != 2 || s.Evicted != 1 || s.Admitted != 4 {
		t.Fatalf("stats %+v", s)
	}
}

func TestNewestSameePriorityShedFirst(t *testing.T) {
	c := mustNew(t, Config{Capacity: 2, MaxInFlight: 0})
	// MaxInFlight 0 dispatches instantly; use a window of 2 via capacity
	// by not draining: keep both waiting.
	c = mustNew(t, Config{Capacity: 2, MaxInFlight: 1})
	c.Offer(req(3, 0), 0)
	c.Dispatchable()
	tOld, _, _ := c.Offer(req(3, 1), 0)
	// Same priority as the waiter but newer: the arrival is the victim.
	if _, evicted, out := c.Offer(req(3, 2), 0); out != Shed || evicted != nil {
		t.Fatalf("newest not shed: %v %v", out, evicted)
	}
	_ = tOld
}

func TestDispatchOrderPriorityThenArrival(t *testing.T) {
	c := mustNew(t, Config{MaxInFlight: 10})
	a, _, _ := c.Offer(req(1, 0), 0)
	b, _, _ := c.Offer(req(9, 1), 0)
	d, _, _ := c.Offer(req(9, 2), 0)
	e, _, _ := c.Offer(req(3, 3), 0)
	got := c.Dispatchable()
	want := []*Ticket{b, d, e, a}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %d: got prio %d arrival %v", i, got[i].req.Priority, got[i].req.Arrival)
		}
	}
}

func TestWindowRefillsOnRelease(t *testing.T) {
	c := mustNew(t, Config{Capacity: 4, MaxInFlight: 2})
	for i := 0; i < 4; i++ {
		if _, _, out := c.Offer(req(3, sim.Time(i)), 0); out != Admitted {
			t.Fatalf("offer %d: %v", i, out)
		}
	}
	first := c.Dispatchable()
	if len(first) != 2 || c.QueueDepth() != 2 || c.InFlight() != 2 {
		t.Fatalf("window: %d dispatched, depth %d, inflight %d", len(first), c.QueueDepth(), c.InFlight())
	}
	if more := c.Dispatchable(); more != nil {
		t.Fatalf("overdispatched %d", len(more))
	}
	c.Release(first[0])
	if more := c.Dispatchable(); len(more) != 1 {
		t.Fatalf("release freed %d slots", len(more))
	}
	// Releasing an undispatched or nil ticket is a no-op.
	c.Release(nil)
	c.Release(&Ticket{})
	if c.InFlight() != 2 {
		t.Fatalf("inflight %d after no-op releases", c.InFlight())
	}
}

func TestDeadlineAdmission(t *testing.T) {
	c := mustNew(t, Config{})
	r := Request{Priority: 3, Estimate: sim.Second, SLO: 3 * sim.Second}
	// Load low enough: admitted.
	if _, _, out := c.Offer(r, sim.Second); out != Admitted {
		t.Fatalf("reachable SLO rejected: %v", out)
	}
	// Outstanding load alone blows the budget.
	if _, _, out := c.Offer(r, 5*sim.Second); out != RejectedDeadline {
		t.Fatalf("unreachable SLO admitted: %v", out)
	}
	// Queued-ahead work counts too: the first admission is still queued.
	if _, _, out := c.Offer(r, sim.Duration(1500*sim.Millisecond)); out != RejectedDeadline {
		t.Fatalf("queued-ahead work ignored: %v", out)
	}
	if s := c.Stats(); s.RejectedDeadline != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDeadlineFactorDerivesSLO(t *testing.T) {
	c := mustNew(t, Config{DeadlineFactor: 2})
	r := Request{Priority: 3, Estimate: sim.Second} // implied SLO 2s
	if _, _, out := c.Offer(r, sim.Duration(500*sim.Millisecond)); out != Admitted {
		t.Fatalf("out=%v", out)
	}
	if _, _, out := c.Offer(r, 10*sim.Second); out != RejectedDeadline {
		t.Fatalf("out=%v", out)
	}
}

func TestQuota(t *testing.T) {
	c := mustNew(t, Config{Quotas: map[string]int{"t1": 2}})
	mk := func(tenant string) Request {
		return Request{Tenant: tenant, Priority: 3, Estimate: sim.Second}
	}
	if _, _, out := c.Offer(mk("t1"), 0); out != Admitted {
		t.Fatal(out)
	}
	if _, _, out := c.Offer(mk("t1"), 0); out != Admitted {
		t.Fatal(out)
	}
	if _, _, out := c.Offer(mk("t1"), 0); out != RejectedQuota {
		t.Fatalf("quota not enforced: %v", out)
	}
	// Other tenants are unaffected.
	if _, _, out := c.Offer(mk("t2"), 0); out != Admitted {
		t.Fatal(out)
	}
	// Completion frees quota.
	tk := c.Dispatchable()[0]
	c.Release(tk)
	if _, _, out := c.Offer(mk("t1"), 0); out != Admitted {
		t.Fatalf("freed quota not reusable: %v", out)
	}
}

func TestWeightedFairShareShedding(t *testing.T) {
	// Heavy holds 3 of 4 slots; light has weight 3 vs heavy's 1, so
	// heavy's share of a full queue is 1 slot and its queued entries are
	// shed first even at higher priority.
	c := mustNew(t, Config{Capacity: 4, MaxInFlight: 1, Weights: map[string]float64{"light": 3, "heavy": 1}})
	c.Offer(Request{Tenant: "heavy", Priority: 9, Estimate: sim.Second, Arrival: 0}, 0)
	c.Dispatchable()
	h2, _, _ := c.Offer(Request{Tenant: "heavy", Priority: 9, Estimate: sim.Second, Arrival: 1}, 0)
	h3, _, _ := c.Offer(Request{Tenant: "heavy", Priority: 9, Estimate: sim.Second, Arrival: 2}, 0)
	c.Offer(Request{Tenant: "light", Priority: 1, Estimate: sim.Second, Arrival: 3}, 0)
	// Queue full (1 in flight + 3 waiting). A light arrival displaces
	// heavy's newest waiter despite lower priority: heavy is over its
	// weighted share, light is not.
	_, evicted, out := c.Offer(Request{Tenant: "light", Priority: 1, Estimate: sim.Second, Arrival: 4}, 0)
	if out != Admitted || evicted != h3 {
		t.Fatalf("out=%v evicted=%v (want %v)", out, evicted, h3)
	}
	_ = h2
	if s := c.Stats(); s.Evicted != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSingleTenantOwnsWholeQueue(t *testing.T) {
	// With one tenant, fair sharing must never bite: shedding falls back
	// to pure priority/newest comparisons.
	c := mustNew(t, Config{Capacity: 2, MaxInFlight: 1})
	c.Offer(req(1, 0), 0)
	c.Dispatchable()
	c.Offer(req(1, 1), 0)
	if _, evicted, out := c.Offer(req(9, 2), 0); out != Admitted || evicted == nil {
		t.Fatalf("out=%v evicted=%v", out, evicted)
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustNew(t, Config{Capacity: 1, Registry: reg})
	c.Offer(req(3, 0), 0)
	c.Offer(req(3, 1), 0) // shed: tail drop at capacity 1
	c.Dispatchable()
	snap := reg.Snapshot()
	if snap.Counters["admit_admitted_total"] != 1 || snap.Counters["admit_shed_total"] != 1 {
		t.Fatalf("counters %+v", snap.Counters)
	}
	if snap.Gauges["admit_inflight"] != 1 || snap.Gauges["admit_queue_depth"] != 0 {
		t.Fatalf("gauges %+v", snap.Gauges)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "admit_shed_total 1") {
		t.Fatalf("prometheus exposition missing shed counter:\n%s", sb.String())
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, tc := range []struct {
		o    Outcome
		want string
	}{{Admitted, "admitted"}, {Shed, "shed"}, {RejectedDeadline, "deadline"}, {RejectedQuota, "quota"}, {Outcome(42), "Outcome(42)"}} {
		if got := tc.o.String(); got != tc.want {
			t.Errorf("%d: %q != %q", int(tc.o), got, tc.want)
		}
	}
}

func TestConservationCounters(t *testing.T) {
	c := mustNew(t, Config{Capacity: 3, MaxInFlight: 2, DeadlineFactor: 4, Quotas: map[string]int{"q": 1}})
	var tickets []*Ticket
	for i := 0; i < 50; i++ {
		tenant := ""
		if i%7 == 0 {
			tenant = "q"
		}
		r := Request{Tenant: tenant, Priority: 1 + i%9, Estimate: sim.Second, Arrival: sim.Time(i)}
		_, _, _ = c.Offer(r, sim.Duration(i%6)*sim.Second)
		tickets = append(tickets, c.Dispatchable()...)
		if i%3 == 0 && len(tickets) > 0 {
			c.Release(tickets[0])
			tickets = tickets[1:]
		}
	}
	s := c.Stats()
	if s.Offered != 50 {
		t.Fatalf("offered %d", s.Offered)
	}
	if got := s.Admitted + s.Shed - s.Evicted + s.RejectedDeadline + s.RejectedQuota; got != s.Offered {
		t.Fatalf("conservation: %d != offered %d (%+v)", got, s.Offered, s)
	}
	if s.Admitted != s.Evicted+s.Dispatched+c.QueueDepth() {
		t.Fatalf("admitted %d != evicted %d + dispatched %d + queued %d", s.Admitted, s.Evicted, s.Dispatched, c.QueueDepth())
	}
	if s.Dispatched != s.Completed+c.InFlight() {
		t.Fatalf("dispatched %d != completed %d + inflight %d", s.Dispatched, s.Completed, c.InFlight())
	}
	if s.PeakQueueDepth > 3 || len(tickets) > 2 {
		t.Fatalf("bounds violated: peak %d inflight %d", s.PeakQueueDepth, len(tickets))
	}
}
