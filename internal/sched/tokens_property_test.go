package sched_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"nimblock/internal/hls"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// randomApps builds n pending applications with random priorities and
// random chain graphs.
func randomApps(t *testing.T, rng *rand.Rand, n int) []*sched.App {
	t.Helper()
	out := make([]*sched.App, 0, n)
	for i := 0; i < n; i++ {
		b := taskgraph.NewBuilder("app")
		tasks := 1 + rng.Intn(5)
		for j := 0; j < tasks; j++ {
			b.AddTask("t", sim.Duration(1+rng.Intn(400))*sim.Millisecond)
			if j > 0 {
				b.AddEdge(j-1, j)
			}
		}
		g := b.MustBuild()
		prio := sched.PriorityLevels[rng.Intn(len(sched.PriorityLevels))]
		a, err := sched.NewApp(int64(i+1), g, hls.Analyze(g), 1+rng.Intn(8), prio, sim.Time(rng.Intn(1000)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// Property: after every AccrueTokens call, on a randomly churning pending
// queue, the token-pool invariants hold — non-negative finite balances,
// threshold-consistent candidate marking, and a never-empty candidate
// pool while applications wait.
func TestTokenPoolInvariantsProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		apps := randomApps(t, rng, 2+rng.Intn(8))
		now := sim.Time(0)
		for step := 0; step < 60; step++ {
			now += sim.Time(rng.Intn(500_000)) // up to 0.5 s per step
			sched.AccrueTokens(now, apps)
			if err := schedtest.CheckTokenInvariants(apps); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			// Churn: retire the front app or admit a new one.
			switch {
			case len(apps) > 1 && rng.Intn(4) == 0:
				apps = apps[1:]
			case rng.Intn(4) == 0:
				extra := randomApps(t, rng, 1)
				extra[0].ID = int64(1000 + step)
				apps = append(apps, extra[0])
			}
		}
	}
}

// Property: token accrual is conserved across accumulation granularity —
// integrating degradation over one long interval or over many short ones
// yields the same balance (the accrual law is linear in elapsed time).
func TestTokenAccrualConservation(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		coarse := randomApps(t, rng, 5)
		fine := make([]*sched.App, len(coarse))
		for i, a := range coarse {
			cp := *a
			fine[i] = &cp
		}
		start := sim.Time(1000)
		sched.AccrueTokens(start, coarse)
		sched.AccrueTokens(start, fine)

		end := start + sim.Time(10_000_000) // 10 s later
		sched.AccrueTokens(end, coarse)
		for now := start; now < end; now += sim.Time(250_000 + rng.Intn(750_000)) {
			sched.AccrueTokens(now, fine)
		}
		sched.AccrueTokens(end, fine)

		for i := range coarse {
			got, want := fine[i].Tokens, coarse[i].Tokens
			if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
				t.Fatalf("seed %d app %d: fine-grained accrual %v, coarse %v", seed, i, got, want)
			}
		}
	}
}

// Property: balances are history-free. One pool accumulates at every
// instant of a 400 ms tick grid; a second pool, over copies of the same
// applications, accumulates on a random subset of the grid that still
// contains every instant an arrival, a retirement or a candidate flip
// happens on the full grid (the instants a scheduler must not skip). At
// every instant both pools see, Tokens, Candidate and CandidateSince
// agree exactly, so skipping the other instants changes nothing.
func TestTokensAgreeOnTickSubsets(t *testing.T) {
	const tick = sim.Time(400 * sim.Millisecond)
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		every := randomApps(t, rng, 2+rng.Intn(8))
		sparse := copyApps(every)
		calls := 0
		for step := 0; step < 300; step++ {
			now := sim.Time(step) * tick
			forced := step == 0
			switch {
			case len(every) > 1 && rng.Intn(40) == 0:
				every, sparse = every[1:], sparse[1:]
				forced = true
			case rng.Intn(40) == 0:
				extra := randomApps(t, rng, 1)
				extra[0].ID = int64(1000 + step)
				every = append(every, extra[0])
				sparse = append(sparse, copyApps(extra)...)
				forced = true
			}
			was := candidateFlags(every)
			sched.AccrueTokens(now, every)
			if !forced && slices.Equal(was, candidateFlags(every)) && rng.Intn(4) != 0 {
				continue
			}
			calls++
			sched.AccrueTokens(now, sparse)
			for i, e := range every {
				s := sparse[i]
				if s.Tokens != e.Tokens || s.Candidate != e.Candidate || s.CandidateSince != e.CandidateSince {
					t.Fatalf("seed %d at %v app %d: sparse {tokens %v candidate %v since %v}, every tick {%v %v %v}",
						seed, now, e.ID, s.Tokens, s.Candidate, s.CandidateSince, e.Tokens, e.Candidate, e.CandidateSince)
				}
			}
		}
		if calls == 300 {
			t.Fatalf("seed %d: the sparse pool skipped no instant", seed)
		}
	}
}

// copyApps returns shallow copies of apps that have not yet been
// accumulated, so two pools can track them independently.
func copyApps(apps []*sched.App) []*sched.App {
	out := make([]*sched.App, len(apps))
	for i, a := range apps {
		cp := *a
		out[i] = &cp
	}
	return out
}

func candidateFlags(apps []*sched.App) []bool {
	out := make([]bool, len(apps))
	for i, a := range apps {
		out[i] = a.Candidate
	}
	return out
}
