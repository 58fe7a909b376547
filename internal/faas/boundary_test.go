package faas

import (
	"strings"
	"testing"

	"nimblock/internal/admit"
	"nimblock/internal/apps"
	"nimblock/internal/sim"
)

// TestPickBoundaries table-drives the warm/scale-up decision over the
// documented boundary conditions, checking pick() directly against a
// hand-built platform state.
func TestPickBoundaries(t *testing.T) {
	const fn = "f"
	cases := []struct {
		name        string
		boards      int
		scaleUp     int
		warm        []int // boards already holding fn's bitstreams
		outstanding []int
		wantBoard   int
		wantCold    bool
	}{
		{
			name:   "no warm board: cheapest cold board",
			boards: 3, scaleUp: 4,
			warm: nil, outstanding: []int{2, 0, 1},
			wantBoard: 1, wantCold: true,
		},
		{
			name:   "warm under threshold wins over idle cold",
			boards: 2, scaleUp: 4,
			warm: []int{0}, outstanding: []int{3, 0},
			wantBoard: 0, wantCold: false,
		},
		{
			name:   "warm at threshold scales to less-loaded cold",
			boards: 2, scaleUp: 4,
			warm: []int{0}, outstanding: []int{4, 0},
			wantBoard: 1, wantCold: true,
		},
		{
			name:   "over threshold but cold equally loaded: stay warm",
			boards: 2, scaleUp: 4,
			warm: []int{0}, outstanding: []int{5, 5},
			wantBoard: 0, wantCold: false,
		},
		{
			name:   "all boards warm and over threshold: least-loaded warm",
			boards: 3, scaleUp: 2,
			warm: []int{0, 1, 2}, outstanding: []int{9, 4, 7},
			wantBoard: 1, wantCold: false,
		},
		{
			name:   "warm load tie breaks to lowest index",
			boards: 3, scaleUp: 4,
			warm: []int{1, 2}, outstanding: []int{0, 2, 2},
			wantBoard: 1, wantCold: false,
		},
		{
			name:   "zero ScaleUp scales eagerly on any warm backlog",
			boards: 2, scaleUp: 0,
			warm: []int{0}, outstanding: []int{1, 0},
			wantBoard: 1, wantCold: true,
		},
		{
			name:   "zero ScaleUp keeps an idle warm board",
			boards: 2, scaleUp: 0,
			warm: []int{0}, outstanding: []int{0, 0},
			wantBoard: 0, wantCold: false,
		},
		{
			name:   "single board always wins warm",
			boards: 1, scaleUp: 0,
			warm: []int{0}, outstanding: []int{7},
			wantBoard: 0, wantCold: false,
		},
		{
			name:   "single board cold on first touch",
			boards: 1, scaleUp: 4,
			warm: nil, outstanding: []int{0},
			wantBoard: 0, wantCold: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Boards = tc.boards
			cfg.ScaleUp = tc.scaleUp
			_, p := newPlatform(t, cfg)
			if err := p.Register(fn, Function{Graph: apps.MustGraph(apps.LeNet), Priority: 3}); err != nil {
				t.Fatal(err)
			}
			for _, b := range tc.warm {
				p.deployed[b][fn] = true
			}
			copy(p.outstanding, tc.outstanding)
			board, cold := p.pick(fn, p.core.Candidates())
			if board != tc.wantBoard || cold != tc.wantCold {
				t.Fatalf("pick = (%d, %v), want (%d, %v)", board, cold, tc.wantBoard, tc.wantCold)
			}
		})
	}
}

// TestOutstandingTracksRetirement pins the load-accounting fix: the
// dispatcher's per-board load must fall back to zero as invocations
// retire (the old pending-count approximation never saw in-flight
// cold-start submissions and misrouted bursts).
func TestOutstandingTracksRetirement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 2
	_, p := newPlatform(t, cfg)
	registerSuite(t, p)
	for i := 0; i < 4; i++ {
		if err := p.Invoke(apps.LeNet, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results", len(res))
	}
	for b := 0; b < p.Boards(); b++ {
		if p.Outstanding(b) != 0 {
			t.Fatalf("board %d still shows %d outstanding after drain", b, p.Outstanding(b))
		}
	}
}

// TestSameInstantBurstSeesItself pins the second half of that fix:
// simultaneous invocations must observe each other's placement
// immediately, so a burst at one instant spreads instead of landing on
// one board. Board 0 is pre-warmed; with ScaleUp 1 the second
// same-instant invocation must already see the first one's load.
func TestSameInstantBurstSeesItself(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 2
	cfg.ScaleUp = 1
	_, p := newPlatform(t, cfg)
	registerSuite(t, p)
	if err := p.Invoke(apps.LeNet, 2, 0); err != nil { // cold-starts board 0
		t.Fatal(err)
	}
	burst := sim.Time(10 * sim.Second)
	for i := 0; i < 2; i++ {
		if err := p.Invoke(apps.LeNet, 2, burst); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	boards := map[int]int{}
	for _, r := range res[1:] {
		boards[r.Board]++
	}
	if boards[0] != 1 || boards[1] != 1 {
		t.Fatalf("same-instant burst not spread: %v", boards)
	}
}

// TestDispatchErrorSurfaced pins the panic removal on the faas dispatch
// path: a submission the hypervisor rejects at dispatch time surfaces as
// an error from Run.
func TestDispatchErrorSurfaced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 1
	cfg.HV.MemCapacity = 1 // no graph's buffers fit: Submit fails mechanically
	_, p := newPlatform(t, cfg)
	registerSuite(t, p)
	if err := p.Invoke(apps.LeNet, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err == nil {
		t.Fatal("dispatch failure not surfaced from Run")
	}
}

// TestFaasAdmissionSheds: a burst past admission capacity is shed and
// reported as Rejected results while admitted traffic completes.
func TestFaasAdmissionSheds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 1
	cfg.Admission = &admit.Config{Capacity: 2}
	_, p := newPlatform(t, cfg)
	registerSuite(t, p)
	for i := 0; i < 5; i++ {
		if err := p.Invoke(apps.LeNet, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d results", len(res))
	}
	var done, shed int
	for _, r := range res {
		if r.Rejected {
			shed++
			if r.Board != -1 || r.RejectReason != "shed" || r.Latency != 0 {
				t.Fatalf("bad rejection: %+v", r)
			}
		} else {
			done++
			if r.Latency <= 0 {
				t.Fatalf("bad completion: %+v", r)
			}
		}
	}
	if done != 2 || shed != 3 {
		t.Fatalf("done %d shed %d", done, shed)
	}
	if st := p.Stats(); st.Rejections != 3 || st.Invocations != 2 {
		t.Fatalf("stats %+v", st)
	}
	if s := p.AdmissionStats(); s.Offered != 5 || s.Completed != 2 {
		t.Fatalf("admission stats %+v", s)
	}
}

// TestFaasAdmissionQuotaByTenant: functions carry tenant identity into
// admission; a capped tenant's excess is rejected with reason "quota".
func TestFaasAdmissionQuotaByTenant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 1
	cfg.Admission = &admit.Config{Quotas: map[string]int{"capped": 1}}
	_, p := newPlatform(t, cfg)
	if err := p.Register("capped-fn", Function{Graph: apps.MustGraph(apps.LeNet), Priority: 3, Tenant: "capped"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("free-fn", Function{Graph: apps.MustGraph(apps.ImageCompression), Priority: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Invoke("capped-fn", 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Invoke("free-fn", 2, 0); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	var quotaRejects, completed int
	for _, r := range res {
		if r.Rejected && r.RejectReason == "quota" {
			quotaRejects++
			if !strings.HasPrefix(r.Function, "capped") {
				t.Fatalf("wrong function rejected: %+v", r)
			}
		} else if !r.Rejected {
			completed++
		}
	}
	if quotaRejects != 2 || completed != 2 {
		t.Fatalf("quota rejects %d completed %d", quotaRejects, completed)
	}
}

// TestFaasAdmissionQueueDrains: a bounded dispatch window promotes
// queued invocations as boards drain; everything completes.
func TestFaasAdmissionQueueDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 1
	cfg.Admission = &admit.Config{Capacity: 4, MaxInFlight: 1}
	_, p := newPlatform(t, cfg)
	registerSuite(t, p)
	for i := 0; i < 4; i++ {
		if err := p.Invoke(apps.LeNet, 2, sim.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Rejected || r.Latency <= 0 {
			t.Fatalf("result %d not completed: %+v", i, r)
		}
	}
	if s := p.AdmissionStats(); s.Completed != 4 || s.PeakInFlight != 1 {
		t.Fatalf("admission stats %+v", s)
	}
}
