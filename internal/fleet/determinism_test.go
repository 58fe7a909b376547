package fleet

import (
	"testing"

	"nimblock/internal/hv"
	"nimblock/internal/workload"
)

// The shard-determinism property: a fleet of B boards produces
// byte-identical per-submission results — and identical aggregate
// energy and fairness — whether those boards live on 1, 2, or 8
// engines, and however many workers advance the shards. Placement reads
// per-board state only at epoch barriers (where every clock sits on the
// same instant) plus deterministic in-epoch accumulation, and boards on
// a shared engine never touch each other's state, so regrouping cannot
// change any outcome. Run under -race, this is also the proof the
// parallel coordinator shares nothing it shouldn't.
//
// The capped axis runs the same streams under a small MaxOutstanding,
// so shed results, which never reach a board, are compared field by
// field across shard counts too.
func TestShardDeterminism(t *testing.T) {
	const boards = 8
	run := func(shards, workers, maxOut int, seed int64) ([]Result, Stats) {
		cfg := Config{Shards: shards, Boards: boards, HV: hv.DefaultConfig(), Workers: workers, MaxOutstanding: maxOut}
		f, err := New(cfg, mkNimblock)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(workload.NewStream(workload.Spec{Scenario: workload.Stress, Events: 30}, seed))
		if err != nil {
			t.Fatal(err)
		}
		return res, f.Stats()
	}

	for _, maxOut := range []int{0, 4} {
		shed := 0
		for seed := int64(1); seed <= 20; seed++ {
			ref, refStats := run(1, 1, maxOut, seed)
			shed += refStats.Rejected
			for _, shards := range []int{2, 8} {
				for _, workers := range []int{1, 4} {
					got, gotStats := run(shards, workers, maxOut, seed)
					if len(got) != len(ref) {
						t.Fatalf("cap %d seed %d shards %d workers %d: %d results vs %d", maxOut, seed, shards, workers, len(got), len(ref))
					}
					for i := range ref {
						// The hosting shard is the only field allowed to
						// differ across shard counts.
						a, b := ref[i], got[i]
						a.Shard, b.Shard = 0, 0
						if a != b {
							t.Fatalf("cap %d seed %d shards %d workers %d: result %d differs:\n  1 shard:  %+v\n  %d shards: %+v",
								maxOut, seed, shards, workers, i, ref[i], shards, got[i])
						}
					}
					if gotStats.Energy != refStats.Energy {
						t.Fatalf("cap %d seed %d shards %d: energy differs: %+v vs %+v", maxOut, seed, shards, gotStats.Energy, refStats.Energy)
					}
					if gotStats.BoardFairness != refStats.BoardFairness {
						t.Fatalf("cap %d seed %d shards %d: fairness %v vs %v", maxOut, seed, shards, gotStats.BoardFairness, refStats.BoardFairness)
					}
					if gotStats.Completed != refStats.Completed || gotStats.Rejected != refStats.Rejected {
						t.Fatalf("cap %d seed %d shards %d: stats differ: %+v vs %+v", maxOut, seed, shards, gotStats, refStats)
					}
				}
			}
		}
		if (shed > 0) != (maxOut > 0) {
			t.Fatalf("cap %d: %d arrivals shed over 20 seeds", maxOut, shed)
		}
	}
}
