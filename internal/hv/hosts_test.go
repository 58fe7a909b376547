package hv_test

import (
	"testing"

	"nimblock/internal/hv"
	"nimblock/internal/trace"
)

// hostCheck is an observer that compares every record's hosting slots
// with a scan of the slots (ScanHosts) at each traced event, mid-event
// ones included, and counts the events it checked.
type hostCheck struct {
	t *testing.T
	h *hv.Hypervisor
	n *int
}

func (c *hostCheck) Observe(e trace.Event) {
	if c.h == nil {
		return
	}
	*c.n++
	if err := c.h.ScanHosts(); err != nil {
		c.t.Fatalf("at %v, %v event: %v", e.At, e.Kind, err)
	}
}

// TestHostsMatchSlotScan is the differential oracle for the hosting
// slots kickApp and Abort step through: over the lifecycle matrix
// (20 seeds x 3 checkpoint modes, every fault kind, degrade, abort,
// freeze, evacuation and migration) under each of the seven policies,
// every record's list equals a scan of the slots' occupants at every
// traced event. Visiting the listed slots in ascending order, and
// re-reading the list after each visit, then visits what a scan of
// every slot would. The checks read only, so the outcome must match an
// unchecked run.
func TestHostsMatchSlotScan(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 4
	}
	for _, p := range skipPolicies {
		t.Run(p.name, func(t *testing.T) {
			checked := 0
			for seed := int64(1); seed <= seeds; seed++ {
				for mode := 0; mode < numModes; mode++ {
					c := goldenLifecycleCase(seed, mode)
					c.policy = p.name
					want := runLifecycle(t, c)
					c.hostChecks = &checked
					if got := runLifecycle(t, c); got != want {
						t.Fatalf("seed %d mode %s: checking changed the outcome:\n checked %+v\n run     %+v",
							seed, modeNames[mode], got, want)
					}
				}
			}
			if checked == 0 {
				t.Fatal("no event was checked")
			}
			t.Logf("checked the hosting slots at %d events", checked)
		})
	}
}
