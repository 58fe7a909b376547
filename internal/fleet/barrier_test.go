package fleet

import (
	"fmt"
	"testing"

	"nimblock/internal/faults"
	"nimblock/internal/frontend"
	"nimblock/internal/hv"
	"nimblock/internal/obs"
	"nimblock/internal/workload"
)

// barrierBoards is a mixed fleet for the barrier oracle: every third
// board loses two slots for good mid-run and quarantines a third after
// repeated CRC faults, and the boards after those are small three-slot
// boards, so scores differ in usable slot count as well as load.
func barrierBoards(n int) []hv.Config {
	cfgs := make([]hv.Config, n)
	for g := range cfgs {
		c := hv.DefaultConfig()
		if g%3 == 1 {
			c.Board.Slots = 3
		}
		if g%3 == 0 {
			c.QuarantineThreshold = 2
			c.Board.NewInjector = faults.MustParsePlan(fmt.Sprintf(
				"seed %d\ndead slot=%d at=%dms\ndead slot=%d at=%dms\ncrc prob=0.6 slot=%d",
				g+1, g%5, 400+150*g, 5+g%5, 2000+300*g, 9)).MustFactory()
		}
		cfgs[g] = c
	}
	return cfgs
}

// checkScores compares every cached score with the score recomputed
// from the board and the fleet's snapshot and routed work, as pick
// reads them while it routes an epoch's arrivals.
func checkScores(t *testing.T, f *Fleet, when string) {
	t.Helper()
	for g := 0; g < f.cfg.Boards; g++ {
		want := frontend.PlacementScore(f.Board(g).Board(), (f.outSnap[g] + f.routed[g]).Seconds())
		if f.scores[g] != want {
			t.Fatalf("%s: board %d cached score %v, recomputed %v", when, g, f.scores[g], want)
		}
	}
}

// checkBarrier compares the fleet's incremental placement state, just
// after a barrier, with a full rescan of every board: each snapshot is
// the board's outstanding estimate, nothing stays routed, each cached
// score is the placement score recomputed from the board, and the
// pending totals (fleet, per shard, and the gauges) are sums of every
// board's pending count.
func checkBarrier(t *testing.T, f *Fleet, pending int, when string) {
	t.Helper()
	total, perShard := 0, make([]int, len(f.engs))
	for g := 0; g < f.cfg.Boards; g++ {
		b := f.Board(g)
		if got, want := f.outSnap[g], b.OutstandingEstimate(); got != want {
			t.Fatalf("%s: board %d snapshot %v, rescan %v", when, g, got, want)
		}
		if f.routed[g] != 0 {
			t.Fatalf("%s: board %d still has %v routed after the barrier", when, g, f.routed[g])
		}
		if want := frontend.PlacementScore(b.Board(), b.OutstandingEstimate().Seconds()); f.scores[g] != want {
			t.Fatalf("%s: board %d cached score %v, rescan %v", when, g, f.scores[g], want)
		}
		if f.marked[g] {
			t.Fatalf("%s: board %d still marked after the barrier", when, g)
		}
		total += b.PendingCount()
		perShard[f.core.Shard(g)] += b.PendingCount()
	}
	if pending != total || f.pending != total || f.pendEst != total {
		t.Fatalf("%s: barrier pending %d (kept %d, shed estimate %d), rescan %d", when, pending, f.pending, f.pendEst, total)
	}
	for s, p := range perShard {
		if f.shardPend[s] != p || f.gauges.shardPending[s].Value() != float64(p) {
			t.Fatalf("%s: shard %d pending %d (gauge %v), rescan %d", when, s, f.shardPend[s], f.gauges.shardPending[s].Value(), p)
		}
	}
}

// TestBarrierMatchesRescan is the oracle for the barrier's incremental
// state: driven one epoch at a time over 1 and 8 shards, each advanced
// by 1 and 4 workers, every barrier leaves exactly the placement state
// a full rescan of all boards gives (checkBarrier), and the cached
// scores track routing between barriers (checkScores), while boards
// lose slots mid-run. Under -race it also shows the per-shard dirty
// lists are written race-free.
func TestBarrierMatchesRescan(t *testing.T) {
	const boards = 16
	for _, shards := range []int{1, 8} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			f, err := New(Config{
				Shards: shards, Boards: boards, HV: hv.DefaultConfig(), BoardConfigs: barrierBoards(boards),
				Workers: workers, Registry: obs.NewRegistry(),
			}, mkNimblock)
			if err != nil {
				t.Fatal(err)
			}
			in := &arrivals{stream: workload.NewStream(workload.Spec{Scenario: workload.Stress, Events: 40}, 3)}
			epochs, partial := 0, 0
			for {
				end := min(f.now.Add(f.cfg.Epoch), f.cfg.HV.Horizon)
				f.routeUntil(in, end)
				checkScores(t, f, fmt.Sprintf("%s routing to %v", name, end))
				visits := 0
				for _, list := range f.dirty {
					visits += len(list)
				}
				if visits < boards {
					partial++
				}
				pending := f.sync(end)
				epochs++
				checkBarrier(t, f, pending, fmt.Sprintf("%s epoch %d", name, epochs))
				if in.done && pending == 0 {
					break
				}
				if f.now >= f.cfg.HV.Horizon {
					t.Fatalf("%s: %d pending at the horizon", name, pending)
				}
			}
			shrunk := 0
			for g := 0; g < boards; g++ {
				if b := f.Board(g).Board(); b.UsableSlots() < b.NumSlots() {
					shrunk++
				}
			}
			if shrunk == 0 || partial == 0 {
				t.Fatalf("%s: %d boards lost slots and %d of %d barriers skipped a board; the oracle must cover both",
					name, shrunk, partial, epochs)
			}
			t.Logf("%s: %d epochs, %d skipped a board, %d boards lost slots", name, epochs, partial, shrunk)
		}
	}
}

// BenchmarkFleetBarrier measures the coordinator's work between two
// shard advances on the benchmark's 400-board fleet mid-run: one barrier
// and one placement pick. Each iteration reports a load change on 10
// boards (2.5%, the share of boards whose load moves in a typical epoch
// of that run) for the barrier to refresh.
func BenchmarkFleetBarrier(b *testing.B) {
	const boards = 400
	f, err := New(Config{Shards: 8, Boards: boards, HV: hv.DefaultConfig(), Workers: 1, MaxOutstanding: 64 * boards}, mkNimblock)
	if err != nil {
		b.Fatal(err)
	}
	in := &arrivals{stream: workload.NewStream(workload.Spec{
		PoissonRate: 12.5, BatchCap: 4, Events: 10_000,
	}, workload.DeriveSeed(1, 1))}
	for i := 0; i < 600; i++ {
		end := f.now.Add(f.cfg.Epoch)
		f.routeUntil(in, end)
		f.sync(end)
	}
	if f.pending == 0 {
		b.Fatal("fleet idle mid-run")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 10; k++ {
			f.loaded((i*37 + k*41) % boards)
		}
		f.barrier()
		if f.pick() < 0 {
			b.Fatal("nothing placeable")
		}
	}
}
