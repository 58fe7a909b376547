package fleet

// The shard coordinator: lockstep epoch advancement with deterministic
// results for any shard count and any worker count.
//
// Every epoch does three things in a fixed order: (1) pull the epoch's
// arrivals off the stream and place each one, reading only barrier
// snapshots plus the estimates already routed this epoch; (2) advance
// every shard engine to the epoch boundary with RunUntil — in parallel,
// since shards share no state — so all clocks land on the same instant;
// (3) at the barrier, refresh the load snapshots the next epoch's
// placement will read, for the boards that reported a load change.
// Boards on a shared engine never touch each other's state (only
// placement reads across boards, and only at barriers), so a board's
// event outcomes are invariant under regrouping — the shard-determinism
// property the tests pin.

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
// same epoch boundary, and reports the fleet's true pending count. It
// visits only the boards on the dirty lists: a board whose load did not
// move since its last visit keeps its snapshot, its score and its share
// of the pending totals, and no work was routed to it (a submission
// reports a load change).
func (f *Fleet) barrier() int {
	for s, list := range f.dirty {
		for _, g := range list {
			f.marked[g] = false
			b := f.Board(g)
			f.outSnap[g] = b.OutstandingEstimate()
			f.routed[g] = 0
			f.scores[g] = f.score(g)
			p := b.PendingCount()
			f.pending += p - f.pendAt[g]
			f.shardPend[s] += p - f.pendAt[g]
			f.pendAt[g] = p
		}
		f.dirty[s] = list[:0]
	}
	f.pendEst = f.pending
	if f.gauges != nil {
		for s, p := range f.shardPend {
			f.gauges.shardPending[s].Set(float64(p))
		}
		f.gauges.pending.Set(float64(f.pending))
	}
	return f.pending
}

// arrivals is the stream cursor the epochs advance: the next event
// pulled off the stream and not yet routed.
type arrivals struct {
	stream *workload.Stream
	next   workload.Event
	have   bool
	done   bool // the stream is exhausted
}

// routeUntil routes the stream's arrivals up to end, in stream order.
func (f *Fleet) routeUntil(in *arrivals, end sim.Time) {
	for {
		if !in.have && !in.done {
			in.next, in.have = in.stream.Next()
			in.done = !in.have
		}
		if !in.have || in.next.Arrival > end {
			return
		}
		f.route(in.next)
		in.have = false
	}
}

// sync advances every shard to the epoch boundary end and runs the
// barrier there, returning its pending count.
func (f *Fleet) sync(end sim.Time) int {
	f.stats.EventsFired += f.advance(end)
	f.stats.Epochs++
	f.now = end
	pending := f.barrier()
	if f.gauges != nil {
		f.gauges.epoch.Set(f.now.Seconds())
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
	in := &arrivals{stream: stream}
	for {
		end := min(f.now.Add(f.cfg.Epoch), f.cfg.HV.Horizon)
		f.routeUntil(in, end)
		pending := f.sync(end)
		if in.done && pending == 0 {
			break
		}
		if f.now >= f.cfg.HV.Horizon {
			return nil, fmt.Errorf("fleet: %d submissions still pending at horizon %v", pending, f.cfg.HV.Horizon)
		}
	}
	f.stats.Makespan = f.now
	return f.collect()
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
