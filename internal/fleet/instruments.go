package fleet

import (
	"fmt"

	"nimblock/internal/obs"
)

// instruments are the fleet's obs-registry metrics: fleet-level
// counters plus one pending gauge and submission counter per shard, so
// a scrape shows how evenly the router spreads load.
type instruments struct {
	submitted      *obs.Counter
	rejected       *obs.Counter
	pending        *obs.Gauge
	epoch          *obs.Gauge
	shardSubmitted []*obs.Counter
	shardPending   []*obs.Gauge
}

// initInstruments registers the fleet's metrics; a nil Registry leaves
// the fleet unobserved with zero overhead on the hot paths.
func (f *Fleet) initInstruments() {
	reg := f.cfg.Registry
	if reg == nil {
		return
	}
	ins := &instruments{
		submitted: reg.Counter("fleet_submitted_total", "Arrivals offered to the fleet router."),
		rejected:  reg.Counter("fleet_rejected_total", "Arrivals the fleet shed or could not place."),
		pending:   reg.Gauge("fleet_pending", "Unfinished submissions across all shards at the last epoch barrier."),
		epoch:     reg.Gauge("fleet_epoch_seconds", "Simulated time of the last completed epoch barrier."),
	}
	for s := range f.engs {
		ins.shardSubmitted = append(ins.shardSubmitted, reg.Counter(
			fmt.Sprintf("fleet_shard%d_submitted_total", s),
			fmt.Sprintf("Submissions routed to shard %d.", s)))
		ins.shardPending = append(ins.shardPending, reg.Gauge(
			fmt.Sprintf("fleet_shard%d_pending", s),
			fmt.Sprintf("Unfinished submissions on shard %d at the last epoch barrier.", s)))
	}
	f.gauges = ins
}
