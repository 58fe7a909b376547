package schedtest

import (
	"math"
	"strings"
	"testing"

	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

func tokenApps(t *testing.T) []*sched.App {
	t.Helper()
	g := chainGraph(t)
	apps := []*sched.App{
		NewApp(t, 1, g, 2, 1, 0),
		NewApp(t, 2, g, 2, 3, 0),
		NewApp(t, 3, g, 2, 9, 0),
	}
	sched.AccrueTokens(sim.Time(0), apps)
	return apps
}

func TestCheckTokenInvariants(t *testing.T) {
	if err := CheckTokenInvariants(nil); err != nil {
		t.Fatalf("empty app set flagged: %v", err)
	}
	if err := CheckTokenInvariants(tokenApps(t)); err != nil {
		t.Fatalf("freshly accumulated pool flagged: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func([]*sched.App)
		want    string
	}{
		{"negative tokens", func(a []*sched.App) { a[0].Tokens = -1 }, "negative"},
		{"non-finite tokens", func(a []*sched.App) { a[1].Tokens = math.NaN() }, "non-finite"},
		{"candidate below threshold", func(a []*sched.App) { a[0].Candidate = true }, "candidate"},
		{"non-candidate at threshold", func(a []*sched.App) { a[2].Candidate = false }, "candidate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			apps := tokenApps(t)
			tc.corrupt(apps)
			err := CheckTokenInvariants(apps)
			if err == nil {
				t.Fatalf("corruption %q accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
