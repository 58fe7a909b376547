package hv

import (
	"math/rand"
	"testing"
)

// The set answers next exactly as a scan of a flag per slot does, on
// boards past one word, including when a step removes the slot it
// visits.
func TestSlotSetMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		var set slotSet
		in := make([]bool, n)
		scanNext := func(after int) int {
			for s := after + 1; s < n; s++ {
				if in[s] {
					return s
				}
			}
			return -1
		}
		for step := 0; step < 400; step++ {
			s := rng.Intn(n)
			if rng.Intn(2) == 0 {
				set.add(s)
				in[s] = true
			} else {
				set.remove(s)
				in[s] = false
			}
			for after := -1; after < n; after++ {
				if got, want := set.next(after), scanNext(after); got != want {
					t.Fatalf("seed %d, %d slots, step %d: next(%d) = %d, scan %d", seed, n, step, after, got, want)
				}
			}
			// Visiting and removing every member leaves the set empty.
			if step%50 == 49 {
				for s := set.next(-1); s >= 0; s = set.next(s) {
					if !in[s] {
						t.Fatalf("seed %d: visited slot %d outside the set", seed, s)
					}
					set.remove(s)
					in[s] = false
				}
				if set.next(-1) != -1 || scanNext(-1) != -1 {
					t.Fatalf("seed %d: set not emptied", seed)
				}
			}
		}
	}
}
