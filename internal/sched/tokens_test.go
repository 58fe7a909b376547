package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nimblock/internal/apps"
	"nimblock/internal/hls"
	"nimblock/internal/sim"
)

func mkApp(t *testing.T, id int64, name string, batch, prio int, arrival sim.Time) *App {
	t.Helper()
	g := apps.MustGraph(name)
	a, err := NewApp(id, g, hls.Analyze(g), batch, prio, arrival)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestInitialTokensEqualPriority(t *testing.T) {
	a := mkApp(t, 1, apps.LeNet, 5, 9, 0)
	AccrueTokens(0, []*App{a})
	if a.Tokens != 9 {
		t.Fatalf("initial tokens = %v, want priority 9", a.Tokens)
	}
}

func TestTokensGrowWithWaitAndPriority(t *testing.T) {
	lo := mkApp(t, 1, apps.LeNet, 5, 1, 0)
	hi := mkApp(t, 2, apps.LeNet, 5, 9, 0)
	all := []*App{lo, hi}
	AccrueTokens(0, all)
	AccrueTokens(10*sim.Time(sim.Second), all)
	if hi.Tokens-9 <= (lo.Tokens-1)*8.9 {
		t.Fatalf("high-priority accumulation too slow: lo=%v hi=%v", lo.Tokens, hi.Tokens)
	}
	if lo.Tokens <= 1 {
		t.Fatalf("low-priority app accumulated nothing: %v", lo.Tokens)
	}
}

func TestShortAppsDegradeFaster(t *testing.T) {
	short := mkApp(t, 1, apps.ImageCompression, 1, 3, 0)
	long := mkApp(t, 2, apps.DigitRecognition, 1, 3, 0)
	all := []*App{short, long}
	AccrueTokens(0, all)
	AccrueTokens(sim.Time(sim.Second), all)
	if short.Tokens <= long.Tokens {
		t.Fatalf("short app should accumulate faster: short=%v long=%v", short.Tokens, long.Tokens)
	}
}

func TestFloorPriority(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{{0.5, 0}, {1, 1}, {2.9, 1}, {3, 3}, {8.99, 3}, {9, 9}, {100, 9}}
	for _, c := range cases {
		if got := floorPriority(c.in); got != c.want {
			t.Errorf("floorPriority(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestThresholdingCandidates(t *testing.T) {
	a := mkApp(t, 1, apps.LeNet, 5, 9, 0) // tokens 9
	b := mkApp(t, 2, apps.LeNet, 5, 3, 0) // tokens 3
	c := mkApp(t, 3, apps.LeNet, 5, 1, 0) // tokens 1
	AccrueTokens(0, []*App{a, b, c})
	// Threshold = floor(9) = 9 -> only a qualifies.
	if !a.Candidate || b.Candidate || c.Candidate {
		t.Fatalf("candidates = %v %v %v, want only first", a.Candidate, b.Candidate, c.Candidate)
	}
}

func TestCandidatePoolNeverEmptyWhileAppsWait(t *testing.T) {
	// Regression for the >= vs > deviation: with a single app whose
	// tokens sit exactly on a priority level, the pool must not be empty.
	a := mkApp(t, 1, apps.LeNet, 5, 3, 0)
	AccrueTokens(0, []*App{a})
	if !a.Candidate {
		t.Fatal("single waiting app is not a candidate")
	}
}

func TestCandidateSinceStable(t *testing.T) {
	a := mkApp(t, 1, apps.LeNet, 5, 9, 0)
	AccrueTokens(0, []*App{a})
	first := a.CandidateSince
	AccrueTokens(sim.Time(sim.Second), []*App{a})
	if a.CandidateSince != first {
		t.Fatal("CandidateSince changed while app stayed in the pool")
	}
}

func TestCandidatesOrderedByPoolAge(t *testing.T) {
	a := mkApp(t, 1, apps.LeNet, 5, 3, 0)
	b := mkApp(t, 2, apps.LeNet, 5, 3, 5)
	c := mkApp(t, 3, apps.LeNet, 5, 3, 5)
	a.Candidate, a.CandidateSince = true, 100
	b.Candidate, b.CandidateSince = true, 50
	c.Candidate, c.CandidateSince = true, 50
	got := CandidatesInto(nil, []*App{a, b, c})
	if len(got) != 3 || got[0].ID != 2 || got[1].ID != 3 || got[2].ID != 1 {
		ids := []int64{}
		for _, x := range got {
			ids = append(ids, x.ID)
		}
		t.Fatalf("candidate order = %v, want [2 3 1]", ids)
	}
}

// Accrual state lives on the apps, so accumulating over a pending list
// that apps join and leave allocates nothing.
func TestAccumulateZeroAlloc(t *testing.T) {
	var all []*App
	for i := 0; i < 8; i++ {
		all = append(all, mkApp(t, int64(i+1), apps.LeNet, 5, PriorityLevels[i%3], 0))
	}
	now := sim.Time(0)
	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		now = now.Add(sim.Millisecond)
		// A sliding window: one app leaves the front or rejoins the back.
		lo := step % 4
		AccrueTokens(now, all[lo:lo+4])
		step++
	})
	if allocs != 0 {
		t.Fatalf("AccrueTokens allocates %v times per call", allocs)
	}
}

// A late joiner starts at exactly its priority, while apps already seen
// keep accruing from their own last accrual instant.
func TestLateJoinerStartsAtPriority(t *testing.T) {
	a := mkApp(t, 1, apps.LeNet, 5, 3, 0)
	b := mkApp(t, 2, apps.LeNet, 5, 9, 0)
	late := mkApp(t, 3, apps.LeNet, 5, 1, 0)
	AccrueTokens(0, []*App{a})
	AccrueTokens(sim.Time(sim.Second), []*App{a, b})
	if b.Tokens != 9 {
		t.Fatalf("joiner tokens = %v, want priority 9", b.Tokens)
	}
	// Reference accrual on fresh apps, each fed only its own instants:
	// a at 0, 1 s, 2 s and b from 1 s.
	refA := mkApp(t, 1, apps.LeNet, 5, 3, 0)
	refB := mkApp(t, 2, apps.LeNet, 5, 9, 0)
	for _, at := range []sim.Time{0, sim.Time(sim.Second), 2 * sim.Time(sim.Second)} {
		AccrueTokens(at, []*App{refA})
	}
	AccrueTokens(sim.Time(sim.Second), []*App{refB})
	AccrueTokens(2*sim.Time(sim.Second), []*App{refB})

	AccrueTokens(2*sim.Time(sim.Second), []*App{a, b, late})
	if late.Tokens != 1 {
		t.Fatalf("late joiner tokens = %v, want priority 1", late.Tokens)
	}
	if a.Tokens != refA.Tokens || b.Tokens != refB.Tokens {
		t.Fatalf("accrual a=%v b=%v, want %v %v from each app's own last instant",
			a.Tokens, b.Tokens, refA.Tokens, refB.Tokens)
	}
	if a.Tokens <= 3 || b.Tokens <= 9 {
		t.Fatalf("seen apps did not accrue: a=%v b=%v", a.Tokens, b.Tokens)
	}
}

// Property: tokens are monotonically nondecreasing over successive
// accumulations, and always at least the priority.
func TestTokenMonotonicityProperty(t *testing.T) {
	f := func(steps []uint16, prioSel uint8) bool {
		prio := PriorityLevels[int(prioSel)%len(PriorityLevels)]
		g := apps.MustGraph(apps.LeNet)
		a, _ := NewApp(1, g, hls.Analyze(g), 3, prio, 0)
		now := sim.Time(0)
		AccrueTokens(now, []*App{a})
		prev := a.Tokens
		for _, s := range steps {
			now = now.Add(sim.Duration(s) * sim.Millisecond)
			AccrueTokens(now, []*App{a})
			if a.Tokens < prev || a.Tokens < float64(prio) {
				return false
			}
			prev = a.Tokens
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any accumulation over any app mix, at least one pending
// app is a candidate (the pool can never deadlock empty).
func TestCandidateNonEmptyProperty(t *testing.T) {
	f := func(prios []uint8, gap uint16) bool {
		if len(prios) == 0 {
			return true
		}
		if len(prios) > 12 {
			prios = prios[:12]
		}
		var all []*App
		g := apps.MustGraph(apps.Rendering3D)
		for i, ps := range prios {
			prio := PriorityLevels[int(ps)%len(PriorityLevels)]
			a, _ := NewApp(int64(i), g, hls.Analyze(g), 2, prio, sim.Time(i))
			all = append(all, a)
		}
		AccrueTokens(0, all)
		AccrueTokens(sim.Time(gap), all)
		for _, a := range all {
			if a.Candidate {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// freshCrossing is crossing without the memo: the inversion for the
// lowest level above the app's balance, derived every call.
func freshCrossing(a *App) sim.Time {
	for _, l := range PriorityLevels {
		if float64(l) > a.Tokens {
			return crossingAt(a, float64(l))
		}
	}
	return sim.Never
}

// Property: accrued at random instants, and at the very instants
// TokenWake names as wakes, the memoized wake equals the fresh
// inversion for every app, alone and over the whole pending list, while
// the balances climb through every priority level to the top.
func TestCrossingMemoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pending []*App
	var maxE sim.Duration
	for i, name := range apps.Names() {
		for j, prio := range PriorityLevels {
			a := mkApp(t, int64(3*i+j+1), name, 1+rng.Intn(8), prio, sim.Time(rng.Intn(1000)))
			pending = append(pending, a)
			maxE = max(maxE, latencyEstimate(a))
		}
	}
	seen := map[int]bool{} // level index an app's balance was below; -1 for the top
	now := sim.Time(0)
	for step := 0; step < 100_000; step++ {
		AccrueTokens(now, pending)
		want := sim.Never
		top := true
		for _, a := range pending {
			fresh := freshCrossing(a)
			if got := TokenWake(now, []*App{a}); got != fresh {
				t.Fatalf("step %d at %v: %s tokens %v: memoized wake %v, fresh %v",
					step, now, a, a.Tokens, got, fresh)
			}
			want = min(want, fresh)
			i := slices.IndexFunc(PriorityLevels, func(l int) bool { return float64(l) > a.Tokens })
			seen[i] = true
			top = top && i < 0
		}
		if got := TokenWake(now, pending); got != want {
			t.Fatalf("step %d at %v: pending-list wake %v, fresh %v", step, now, got, want)
		}
		if top {
			// A balance starts at its priority, so never below level 0.
			for i := -1; i < len(PriorityLevels); i++ {
				if !seen[i] && i != 0 {
					t.Fatalf("no balance was ever below level index %d", i)
				}
			}
			break
		}
		switch rng.Intn(3) {
		case 0:
			now = want // land exactly on the next crossing
		case 1:
			now += sim.Time(rng.Intn(1000))
		default:
			now += sim.Time(rng.Int63n(int64(maxE)/4 + 1))
		}
	}
	for _, a := range pending {
		if freshCrossing(a) != sim.Never {
			t.Fatalf("%s still below the top level (tokens %v)", a, a.Tokens)
		}
	}
}
