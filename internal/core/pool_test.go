package core

import (
	"math/rand"
	"slices"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/hls"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// pooled is a policy that keeps a candidate pool across calls.
type pooled interface {
	sched.Scheduler
	sched.Waker
}

// poolTwin pairs a pooled policy under test with its every-call
// reference: a second instance of the same policy whose pass accrues
// every balance and sorts the candidates from scratch (everyCall) and
// then allocates and launches as the policy does, with no memo at all.
type poolTwin struct {
	s    pooled
	pool *sched.CandidatePool
	// ref runs one reference pass and returns the candidates in age
	// order.
	ref func(w sched.World) []*sched.App
}

// everyCall is the token and candidate pass the pool replaced: accrue
// every balance and take the candidates from scratch.
func everyCall(w sched.World) []*sched.App {
	sched.AccrueTokens(w.Now(), w.Apps())
	return sched.CandidatesInto(nil, w.Apps())
}

// newPoolTwin builds Nimblock, Nimblock without preemption, or
// NimblockEnergy.
func newPoolTwin(policy uint8) poolTwin {
	switch policy % 3 {
	case 2:
		s, r := NewEnergy(board()), NewEnergy(board())
		return poolTwin{s, &s.pool, func(w sched.World) []*sched.App {
			cands := everyCall(w)
			r.serve(w, slices.Clone(cands))
			return cands
		}}
	default:
		opts := Options{Preemption: policy%3 == 0, Pipelining: true}
		s, r := New(opts, board()), New(opts, board())
		return poolTwin{s, &s.pool, func(w sched.World) []*sched.App {
			cands := everyCall(w)
			r.reallocate(w, cands)
			launch(w, cands, opts.Preemption)
			return cands
		}}
	}
}

const poolSlots = 6

var (
	poolGraphs = func() (out []*taskgraph.Graph) {
		for _, n := range []string{apps.LeNet, apps.ImageCompression, apps.Rendering3D, apps.OpticalFlow} {
			out = append(out, apps.MustGraph(n))
		}
		return out
	}()
	poolReports = func() map[*taskgraph.Graph]*hls.Report {
		out := map[*taskgraph.Graph]*hls.Report{}
		for _, g := range poolGraphs {
			out[g] = hls.Analyze(g)
		}
		return out
	}()
	// Priority 2 lies between levels, so its balance starts above a
	// floor it does not sit on.
	poolPrios   = []int{1, 2, 3, 9}
	poolTenants = []string{"", "a", "b"}
)

// poolStats counts what a run exercised: calls the memo answered, and
// calls that derived again because the clock reached the wake with the
// list unchanged.
type poolStats struct{ calls, memo, crossings int }

// poolRun drives a pooled policy and its every-call reference through
// the same operations on twin worlds, one operation per byte group of
// ops, and fails at the first call after which they disagree on the
// candidate order, any app's candidacy, CandidateSince, SlotsAllocated
// or Goal, the declared wake, or the actions taken. Operations are
// arrivals, retirements, aborts, clock advances (some landing exactly
// on the declared wake, or one microsecond before it), slots going
// offline and online, reconfigurations landing, tasks finishing,
// preemptions honoured, the CAP turning busy or idle, and tenant
// service accruing. A quarter of the operations are not followed by a
// call, so several changes can meet one call.
func poolRun(t *testing.T, policy uint8, ops []byte) poolStats {
	t.Helper()
	tw := newPoolTwin(policy)
	got, ref := schedtest.NewWorld(poolSlots), schedtest.NewWorld(poolSlots)
	worlds := []*schedtest.World{got, ref}
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// leave takes the i-th app off both pending lists with its slots.
	leave := func(i int, abort bool) {
		for _, w := range worlds {
			a := w.AppList[i]
			for s, o := range w.Occupants {
				if o.App == a {
					delete(w.Occupants, s)
					delete(w.Preempted, s)
				}
			}
			if abort {
				a.MarkAborted()
			}
			// In place, as the hypervisor drops an app from its list.
			w.AppList = slices.Delete(w.AppList, i, i+1)
		}
	}
	var st poolStats
	var seen []*sched.App // the list at the last call
	wake := sim.Time(0)   // the wake declared then
	id := int64(0)
	for len(ops) > 0 {
		op := next()
		switch op % 8 {
		case 0: // arrival
			id++
			g := poolGraphs[next()%len(poolGraphs)]
			batch, prio, tenant := 1+next()%4, poolPrios[next()%len(poolPrios)], poolTenants[next()%len(poolTenants)]
			for _, w := range worlds {
				a, err := sched.NewApp(id, g, poolReports[g], batch, prio, w.Clock)
				if err != nil {
					t.Fatal(err)
				}
				a.Tenant = tenant
				w.AppList = append(w.AppList, a)
			}
		case 1: // retirement or abort
			if n := len(got.AppList); n > 0 {
				leave(next()%n, next()%2 == 0)
			}
		case 2: // clock advance, 1 µs to ~9 min
			d := sim.Duration(1+next()) << (next() % 22)
			for _, w := range worlds {
				w.Clock = w.Clock.Add(d)
			}
		case 3: // land on the declared wake, or just before it
			if w := tw.s.NextWake(got); w != sim.Never && w > got.Clock {
				if next()%2 == 1 && w-1 > got.Clock {
					w--
				}
				for _, x := range worlds {
					x.Clock = w
				}
			}
		case 4: // a free slot goes offline, or an offline one returns
			s := next() % poolSlots
			if _, busy := got.Occupants[s]; !busy {
				for _, w := range worlds {
					if w.Offline[s] {
						delete(w.Offline, s)
					} else {
						w.Offline[s] = true
					}
				}
			}
		case 5: // a slot's task finishes its batch
			s := next() % poolSlots
			o, ok := got.Occupants[s]
			if !ok || slices.ContainsFunc(o.App.Graph.Pred(o.Task), func(p int) bool { return o.App.TaskState(p) != sched.TaskDone }) {
				break
			}
			done := -1
			for _, w := range worlds {
				a := w.Occupants[s].App
				w.FinishTask(t, s)
				delete(w.Preempted, s)
				if a.Done() {
					done = slices.Index(w.AppList, a)
				}
			}
			if done >= 0 {
				leave(done, false)
			}
		case 6: // reconfigurations land, and requested preemptions are honoured
			for _, w := range worlds {
				w.ActivateConfigured(t)
				for s := range w.Preempted {
					o := w.Occupants[s]
					if err := o.App.MarkPreempted(o.Task); err != nil {
						t.Fatal(err)
					}
					delete(w.Occupants, s)
					delete(w.Preempted, s)
				}
			}
		case 7: // the CAP turns busy or idle, or a tenant receives service
			// Whole seconds, so tenants often tie on service.
			busy, tenant, d := next()%2 == 0, poolTenants[next()%len(poolTenants)], sim.Duration(next()%3)*sim.Second
			for _, w := range worlds {
				if busy {
					w.Busy = !w.Busy
				} else {
					w.Service[tenant] += d
				}
			}
		}
		if op&0xc0 == 0xc0 {
			continue
		}

		st.calls++
		if slices.Equal(got.AppList, seen) {
			if got.Clock < wake {
				st.memo++
			} else {
				st.crossings++
			}
		}
		tw.s.Schedule(got, sched.ReasonTick)
		wake = tw.s.NextWake(got)
		seen = slices.Clone(got.AppList)
		cands, changed := tw.pool.Refresh(got)
		if changed {
			t.Fatalf("call %d at %v: a second Refresh at the same instant derived again", st.calls, got.Clock)
		}
		want := tw.ref(ref)
		if !slices.EqualFunc(cands, want, func(x, y *sched.App) bool { return x.ID == y.ID }) {
			t.Fatalf("call %d at %v: candidates %v, every call %v", st.calls, got.Clock, cands, want)
		}
		for i, a := range got.AppList {
			r := ref.AppList[i]
			if a.Candidate != r.Candidate || a.CandidateSince != r.CandidateSince || a.SlotsAllocated != r.SlotsAllocated || a.Goal != r.Goal {
				t.Fatalf("call %d at %v: %s candidate %v since %v, %d slots, goal %d; every call %v since %v, %d slots, goal %d",
					st.calls, got.Clock, a, a.Candidate, a.CandidateSince, a.SlotsAllocated, a.Goal,
					r.Candidate, r.CandidateSince, r.SlotsAllocated, r.Goal)
			}
		}
		if w := sched.TokenWake(ref.Clock, ref.AppList); wake != w {
			t.Fatalf("call %d at %v: wake %v, every call %v", st.calls, got.Clock, wake, w)
		}
		if !slices.Equal(got.Reconfigs, ref.Reconfigs) || !slices.Equal(got.Preempts, ref.Preempts) {
			t.Fatalf("call %d at %v: reconfigured %v and preempted %v; every call %v and %v",
				st.calls, got.Clock, got.Reconfigs, got.Preempts, ref.Reconfigs, ref.Preempts)
		}
	}
	return st
}

// TestPoolMatchesEveryCall is the oracle for the memoized candidate
// pool and the allocation it lets core skip: over random operation
// sequences, Nimblock (with and without preemption) and NimblockEnergy
// decide after every call exactly as an instance that accrues tokens
// and takes the candidates from scratch at every call (poolRun).
func TestPoolMatchesEveryCall(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 30
	}
	for policy := uint8(0); policy < 3; policy++ {
		var total poolStats
		for seed := int64(0); seed < seeds; seed++ {
			ops := make([]byte, 600)
			rand.New(rand.NewSource(seed)).Read(ops)
			st := poolRun(t, policy, ops)
			total.calls += st.calls
			total.memo += st.memo
			total.crossings += st.crossings
		}
		// An oracle that never hit the memo, or never derived again at a
		// wake with the list unchanged, would prove nothing.
		if total.memo == 0 || total.crossings == 0 {
			t.Fatalf("policy %d: %+v", policy, total)
		}
		t.Logf("policy %d: %+v", policy, total)
	}
}

// FuzzCandidatePool runs poolRun on arbitrary operation sequences.
func FuzzCandidatePool(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		ops := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(uint8(seed), ops)
	}
	f.Fuzz(func(t *testing.T, policy uint8, ops []byte) {
		poolRun(t, policy, ops)
	})
}
