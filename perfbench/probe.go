package main

import (
	"slices"
	"time"

	"nimblock/internal/experiments"
	"nimblock/internal/fpga"
	"nimblock/internal/obs"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// policyStats is the host-side cost ledger of one policy instance. Each
// board owns its policy, and a board is only ever advanced by one
// goroutine at a time, so the ledger needs no locking; the probe merges
// the ledgers once the run has finished.
type policyStats struct {
	name    string
	calls   [5]int64 // by sched.Reason
	busy    time.Duration
	idle    int64
	callNS  []uint32
	actions int64

	reconfCalls, reconfErr int64
	reconfBusy             time.Duration
	preemptCalls           int64
	preemptBusy            time.Duration
}

// timedPolicy decorates a scheduling policy: every Schedule call is timed
// and classified by reason, and the World it hands the policy times the
// Reconfigure and RequestPreempt calls that reach the hypervisor.
type timedPolicy struct {
	sched.Scheduler
	st    *policyStats
	world timedWorld
}

func (p *timedPolicy) Schedule(w sched.World, why sched.Reason) {
	p.world.World = w
	before := p.st.actions
	t0 := time.Now()
	p.Scheduler.Schedule(&p.world, why)
	d := time.Since(t0)
	p.st.busy += d
	p.st.callNS = append(p.st.callNS, uint32(min(d.Nanoseconds(), 1<<32-1)))
	if int(why) >= 0 && int(why) < len(p.st.calls) {
		p.st.calls[why]++
	}
	if p.st.actions == before {
		p.st.idle++
	}
}

// timedWorld forwards every World method to the hypervisor and times the
// two that mutate it.
type timedWorld struct {
	sched.World
	st *policyStats
}

func (w *timedWorld) Reconfigure(slot int, a *sched.App, task int) error {
	t0 := time.Now()
	err := w.World.Reconfigure(slot, a, task)
	w.st.reconfBusy += time.Since(t0)
	w.st.reconfCalls++
	w.st.actions++
	if err != nil {
		w.st.reconfErr++
	}
	return err
}

func (w *timedWorld) RequestPreempt(slot int) error {
	t0 := time.Now()
	err := w.World.RequestPreempt(slot)
	w.st.preemptBusy += time.Since(t0)
	w.st.preemptCalls++
	w.st.actions++
	return err
}

// probe holds the traced run's instruments: the policy decorators and
// the trace-kind counter attached as every hypervisor's observer. A nil
// probe is the untraced run: raw policies and no observer.
type probe struct {
	policies []*policyStats
	kinds    *obs.Counting
	// capBusy sums CAP streaming time (reconfigurations plus checkpoint
	// state transfers) over every board instance the run built.
	capBusy sim.Duration
	// violations collects invariant-checker failures.
	violations []string
}

func newProbe() *probe { return &probe{kinds: &obs.Counting{}} }

// policy builds the named policy through experiments.NewPolicy and, on a
// traced run, wraps it in a timing decorator.
func (pr *probe) policy(name string, board fpga.Config) (sched.Scheduler, error) {
	p, err := experiments.NewPolicy(name, board)
	if err != nil || pr == nil {
		return p, err
	}
	st := &policyStats{name: p.Name()}
	pr.policies = append(pr.policies, st)
	tp := &timedPolicy{Scheduler: p, st: st}
	tp.world.st = st
	return tp, nil
}

// observer is the sink a traced run attaches to a hypervisor: the shared
// kind counter, teed with any per-board checkers.
func (pr *probe) observer(extra ...obs.Sink) obs.Sink {
	if pr == nil {
		return nil
	}
	return obs.Tee(append([]obs.Sink{pr.kinds}, extra...)...)
}

// addCAP books a board's CAP streaming time.
func (pr *probe) addCAP(b interface{ Board() *fpga.Board }) {
	st := b.Board().Stats()
	pr.capBusy += st.ReconfigTime + st.StateTransferTime
}

func (pr *probe) violate(err error) {
	if err != nil {
		pr.violations = append(pr.violations, err.Error())
	}
}

// schedSummary merges the policy ledgers.
type schedSummary struct {
	calls        [5]int64
	total, idle  int64
	busy         time.Duration
	p50NS, p99NS float64
	perPolicyNS  map[string]float64
	reconfCalls  int64
	reconfErr    int64
	reconfBusy   time.Duration
	preemptCalls int64
	preemptBusy  time.Duration
}

func (pr *probe) summary() schedSummary {
	s := schedSummary{perPolicyNS: map[string]float64{}}
	var all []uint32
	busyBy := map[string]time.Duration{}
	callsBy := map[string]int64{}
	for _, st := range pr.policies {
		for r, n := range st.calls {
			s.calls[r] += n
			s.total += n
			callsBy[st.name] += n
		}
		s.idle += st.idle
		s.busy += st.busy
		busyBy[st.name] += st.busy
		all = append(all, st.callNS...)
		s.reconfCalls += st.reconfCalls
		s.reconfErr += st.reconfErr
		s.reconfBusy += st.reconfBusy
		s.preemptCalls += st.preemptCalls
		s.preemptBusy += st.preemptBusy
	}
	for name, n := range callsBy {
		if n > 0 {
			s.perPolicyNS[name] = float64(busyBy[name].Nanoseconds()) / float64(n)
		}
	}
	slices.Sort(all)
	s.p50NS = rankOf(all, 0.50)
	s.p99NS = rankOf(all, 0.99)
	return s
}

// rankOf is the nearest-rank quantile of sorted samples (0 when empty).
func rankOf(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i])
}
