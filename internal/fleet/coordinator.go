package fleet

// The shard coordinator: lockstep epoch advancement with deterministic
// results for any shard count and any worker count.
//
// Every epoch does three things in a fixed order: (1) pull the epoch's
// arrivals off the stream and place each one, reading only barrier
// snapshots plus the estimates already routed this epoch; (2) advance
// every shard engine to the epoch boundary with RunUntil — in parallel,
// since shards share no state — so all clocks land on the same instant;
// (3) at the barrier, refresh the per-board load snapshots the next
// epoch's placement will read. Boards on a shared engine never touch
// each other's state (only placement reads across boards, and only at
// barriers), so a board's event outcomes are invariant under regrouping
// — the shard-determinism property the tests pin.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nimblock/internal/metrics"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// workers resolves the advancement fan-out for this config.
func (f *Fleet) workers() int {
	w := f.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(f.engs) {
		w = len(f.engs)
	}
	return w
}

// advance runs every shard engine to the epoch boundary and returns the
// total events fired. Shards are fully independent between barriers, so
// any assignment of shards to workers fires the same events; with one
// worker this is the serial reference path.
func (f *Fleet) advance(end sim.Time) int64 {
	w := f.workers()
	if w <= 1 {
		var total int64
		for _, eng := range f.engs {
			total += int64(eng.RunUntil(end))
		}
		return total
	}
	var (
		next  atomic.Int64
		total atomic.Int64
		wg    sync.WaitGroup
	)
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= len(f.engs) {
					return
				}
				total.Add(int64(f.engs[s].RunUntil(end)))
			}
		}()
	}
	wg.Wait()
	return total.Load()
}

// barrier refreshes placement state once every shard clock sits at the
// same epoch boundary, and reports the fleet's true pending count.
func (f *Fleet) barrier() int {
	pending := 0
	var perShard []int // per-shard pending, tallied only for the gauges
	if f.gauges != nil {
		perShard = f.gauges.perShard
		clear(perShard)
	}
	for g := 0; g < f.cfg.Boards; g++ {
		b := f.Board(g)
		f.outSnap[g] = b.OutstandingEstimate()
		f.routed[g] = 0
		p := b.PendingCount()
		pending += p
		if perShard != nil {
			perShard[f.core.Shard(g)] += p
		}
	}
	f.pendEst = pending
	if f.gauges != nil {
		for s, p := range perShard {
			f.gauges.shardPending[s].Set(float64(p))
		}
		f.gauges.pending.Set(float64(pending))
	}
	return pending
}

// Run consumes the stream to exhaustion, drives the fleet to
// quiescence, and returns one Result per arrival in stream order.
// The stream may be unbounded only if something else bounds it (the
// horizon will otherwise run out and Run reports the stall).
func (f *Fleet) Run(stream *workload.Stream) ([]Result, error) {
	if stream == nil {
		return nil, fmt.Errorf("fleet: nil stream")
	}
	horizon := f.cfg.HV.Horizon
	var (
		now        sim.Time
		lookahead  workload.Event
		haveEvent  bool
		streamDone bool
	)
	for !streamDone || f.pending() {
		end := now.Add(f.cfg.Epoch)
		if end > horizon {
			end = horizon
		}
		// Route this epoch's arrivals in stream order.
		for {
			if !haveEvent && !streamDone {
				lookahead, haveEvent = stream.Next()
				streamDone = !haveEvent
			}
			if !haveEvent || lookahead.Arrival > end {
				break
			}
			f.route(lookahead)
			haveEvent = false
		}
		f.stats.EventsFired += f.advance(end)
		f.stats.Epochs++
		now = end
		pending := f.barrier()
		if f.gauges != nil {
			f.gauges.epoch.Set(now.Seconds())
		}
		if streamDone && pending == 0 {
			break
		}
		if now >= horizon {
			return nil, fmt.Errorf("fleet: %d submissions still pending at horizon %v", pending, horizon)
		}
	}
	f.stats.Makespan = now
	return f.collect()
}

// pending reports whether any board still holds unfinished work; used
// only for the degenerate empty-stream first iteration.
func (f *Fleet) pending() bool {
	for g := 0; g < f.cfg.Boards; g++ {
		if f.Board(g).PendingCount() > 0 {
			return true
		}
	}
	return false
}

// collect assembles per-submission results in stream order and the
// aggregate stats, with every shard clock parked at the same final
// epoch boundary so energy integrates over identical spans regardless
// of sharding.
func (f *Fleet) collect() ([]Result, error) {
	outs, err := f.core.Outcomes()
	if err != nil {
		return nil, err
	}
	res := make([]Result, len(outs))
	for idx, o := range outs {
		res[idx] = Result{Result: o.Result, Shard: -1, Board: o.Board, Rejected: o.Rejected, RejectReason: o.RejectReason}
		if o.Rejected {
			f.stats.Rejected++
		} else {
			res[idx].Shard = f.core.Shard(o.Board)
			f.stats.Completed++
		}
	}
	f.stats.Submitted = len(outs)
	f.stats.Energy = f.core.Energy()
	occupied := make([]float64, f.cfg.Boards)
	for g := range occupied {
		occupied[g] = f.Board(g).Energy().OccupiedSlotSeconds
	}
	f.stats.BoardFairness = metrics.JainIndex(occupied)
	return res, nil
}

// Stats reports the aggregate counters of a finished run.
func (f *Fleet) Stats() Stats { return f.stats }

// P99Response is the 99th-percentile response time over completed
// results (a helper for sweeps; 0 when nothing completed).
func P99Response(results []Result) sim.Duration {
	var xs []float64
	for _, r := range results {
		if !r.Rejected {
			xs = append(xs, r.Response.Seconds())
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return sim.Seconds(metrics.Percentile(xs, 99))
}
