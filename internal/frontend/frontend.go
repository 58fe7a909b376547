// Package frontend is the core the cluster, serverless and fleet
// front-ends share: the fleet-level half of the two-level shape
// (placement above, per-board schedulers below) that all three build
// over a set of hypervisors dealt across one or more shard engines.
//
// The Core owns everything the front-ends do the same way: building and
// rebuilding the board set, admission (offer, rejection, tickets keyed
// by board and local ID, release-then-pump), the failure domain
// (health-filtered candidates, parking, evacuation with checkpoint
// migration, retry budgets, stranding), and one terminal outcome per
// submission index. A front-end keeps only its policy: which candidate
// board a unit of work goes to, how it is submitted there, and how its
// outcomes are shaped.
//
// Admission and the failure domain read one clock, so they run only on
// a single shard; a multi-shard board set is driven by its front-end's
// own lockstep loop, which submits and binds work between barriers.
package frontend

import (
	"errors"
	"fmt"
	"math"

	"nimblock/internal/admit"
	"nimblock/internal/faults"
	"nimblock/internal/fpga"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// Config is the part of a front-end's configuration the core acts on.
type Config struct {
	// Name prefixes every error the core reports ("cluster", "faas").
	Name         string
	Boards       int
	HV           hv.Config
	BoardConfigs []hv.Config
	Admission    *admit.Config
	Health       *health.Options
	BoardFaults  []faults.BoardEvent
	// Seed derives the health trackers' jitter streams when the health
	// options leave Tracker.Seed at zero.
	Seed int64
}

// Hooks are the front-end's policy callbacks. Place is required by a
// front-end that hands arrivals to Arrive.
type Hooks struct {
	// Place picks a board for submission idx among cands (never empty)
	// and submits the work there, returning the board and its local ID.
	// Board -1 means no candidate suits; a submit error comes back with
	// the board it was tried on.
	Place func(idx int, cands []int) (board int, id int64, err error)
	// Dispatch, when set, gets the first claim on every fresh dispatch
	// and reports whether it placed the work itself (cluster hedging).
	Dispatch func(idx int, t *admit.Ticket) bool
	// Retired runs at the start of the retire hook for every known
	// submission, before parked work and the admission queue are woken.
	Retired func(board int, id int64, idx int)
	// Evacuated, when set, sees each evacuee of a dead board before
	// failover. It returns the ticket failover should carry and whether
	// it claimed the evacuee, in which case failover skips it.
	Evacuated func(board, idx int, ev *hv.Evacuee, t *admit.Ticket) (*admit.Ticket, bool)
	// Lost runs after a dead board has been rebuilt, before its
	// evacuees fail over: per-board front-end state starts over.
	Lost func(board int)
	// Loaded, when set, runs whenever the board's outstanding estimate,
	// pending count or usable slot count may have changed (hv's
	// OnLoad), and when the board is rebuilt. It runs on the board's
	// shard, so a multi-shard front-end keeps what it records per shard.
	Loaded func(board int)
}

// Outcome is one submission's terminal state. For completed work Result
// is the board's report with arrival, wait, and response re-based on
// the original arrival when a board death forced re-dispatch. Rejected
// and failed outcomes carry only the identity given to Add (app, batch,
// priority, arrival), AppID -1 and FirstLaunch -1 in Result; Board is
// -1 for rejections and the last board that held failed work (-1 if
// none did).
type Outcome struct {
	Result       hv.Result
	Board        int
	Rejected     bool
	RejectReason string
	Failed       bool
	FailReason   string
	// Attempts counts placements: retries + 1 for completed work, the
	// placements made before a failure, 0 for rejections.
	Attempts int
}

// entry is the core's record of one submission index.
type entry struct {
	app      string
	batch    int
	priority int
	arrival  sim.Time
	retries  int      // board deaths survived so far
	last     int      // last board that held it; -1 before the first placement
	out      *Outcome // terminal outcome; nil while the submission is live
}

// binding links a board-local ID to its submission and the admission
// ticket the placement holds (nil when admission is off or the
// front-end holds the ticket itself).
type binding struct {
	idx int
	t   *admit.Ticket
}

// Core is the shared front-end machinery over one board set.
type Core struct {
	// eng is the clock admission and the failure domain read: the first
	// shard's, and the only one whenever either is armed.
	eng      *sim.Engine
	engs     []*sim.Engine // shard -> engine
	shard    []int         // board -> shard
	cfg      Config
	hooks    Hooks
	mkPolicy func(hv.Config) sched.Scheduler
	boards   []*hv.Hypervisor
	bound    []map[int64]binding // board -> local ID -> submission
	subs     []entry             // submission index -> record
	all      []int               // every board index: the health-off candidate set
	ctrl     *admit.Controller
	errs     []error

	// Failure-domain state, armed by Config.Health or BoardFaults (see
	// failover.go).
	mon    *health.Monitor
	hopt   health.Options
	cands  []int // reusable health-filtered candidate buffer
	parked []parked
}

// New validates cfg and builds the board set over the shard engines
// engs; mkPolicy supplies a fresh scheduling policy per board and
// receives the board's configuration. Boards are dealt to shards in
// contiguous blocks, the remainder spread over the leading shards, so
// board i's identity never depends on the shard count.
func New(engs []*sim.Engine, cfg Config, mkPolicy func(hv.Config) sched.Scheduler, hooks Hooks) (*Core, error) {
	if len(engs) < 1 {
		return nil, fmt.Errorf("%s: need at least one shard, got 0", cfg.Name)
	}
	if cfg.Boards < 1 {
		return nil, fmt.Errorf("%s: need at least one board, got %d", cfg.Name, cfg.Boards)
	}
	if cfg.Boards < len(engs) {
		return nil, fmt.Errorf("%s: %d boards across %d shards", cfg.Name, cfg.Boards, len(engs))
	}
	if len(engs) > 1 && (cfg.Admission != nil || cfg.Health != nil || len(cfg.BoardFaults) > 0) {
		return nil, fmt.Errorf("%s: admission and board health need a single shard, got %d", cfg.Name, len(engs))
	}
	if mkPolicy == nil {
		return nil, fmt.Errorf("%s: nil policy factory", cfg.Name)
	}
	if cfg.BoardConfigs != nil && len(cfg.BoardConfigs) != cfg.Boards {
		return nil, fmt.Errorf("%s: %d board configs for %d boards", cfg.Name, len(cfg.BoardConfigs), cfg.Boards)
	}
	c := &Core{eng: engs[0], engs: engs, cfg: cfg, hooks: hooks, mkPolicy: mkPolicy}
	per, extra := cfg.Boards/len(engs), cfg.Boards%len(engs)
	for s := range engs {
		n := per
		if s < extra {
			n++
		}
		for ; n > 0; n-- {
			c.shard = append(c.shard, s)
		}
	}
	if cfg.Admission != nil {
		ctrl, err := admit.New(*cfg.Admission)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
		c.ctrl = ctrl
	}
	for i := 0; i < cfg.Boards; i++ {
		h, err := c.newBoard(i)
		if err != nil {
			return nil, fmt.Errorf("%s: board %d: %w", cfg.Name, i, err)
		}
		c.boards = append(c.boards, h)
		c.bound = append(c.bound, map[int64]binding{})
		c.all = append(c.all, i)
	}
	if err := c.initHealth(); err != nil {
		return nil, err
	}
	return c, nil
}

// newBoard builds (or rebuilds, after a death) board i's hypervisor
// with the core's retire hook, and the front-end's Loaded hook when it
// has one, chained after any user-provided ones.
func (c *Core) newBoard(i int) (*hv.Hypervisor, error) {
	bcfg := c.boardConfig(i)
	board, user := i, bcfg.OnRetire
	bcfg.OnRetire = func(id int64) {
		if user != nil {
			user(id)
		}
		c.onRetire(board, id)
	}
	if loaded, userLoad := c.hooks.Loaded, bcfg.OnLoad; loaded != nil {
		bcfg.OnLoad = func() {
			if userLoad != nil {
				userLoad()
			}
			loaded(board)
		}
	}
	return hv.New(c.engs[c.shard[i]], bcfg, c.mkPolicy(bcfg))
}

// boardConfig resolves the effective hv.Config of board i.
func (c *Core) boardConfig(i int) hv.Config {
	if c.cfg.BoardConfigs != nil {
		return c.cfg.BoardConfigs[i]
	}
	return c.cfg.HV
}

// Boards reports the board count.
func (c *Core) Boards() int { return len(c.boards) }

// Board exposes board i's current hypervisor generation.
func (c *Core) Board(i int) *hv.Hypervisor { return c.boards[i] }

// Shard reports which shard engine board i runs on.
func (c *Core) Shard(i int) int { return c.shard[i] }

// Energy sums the per-board energy reports; each board integrates its
// own power model, so heterogeneous sets aggregate correctly.
func (c *Core) Energy() hv.EnergyStats {
	var total hv.EnergyStats
	for _, b := range c.boards {
		total = total.Add(b.Energy())
	}
	return total
}

// TenantServices merges delivered per-tenant fabric time across boards.
func (c *Core) TenantServices() map[string]sim.Duration {
	out := map[string]sim.Duration{}
	for _, b := range c.boards {
		for tenant, d := range b.TenantServices() {
			out[tenant] += d
		}
	}
	return out
}

// PlacementScore ranks a board for the next unit of work: load (the
// caller's outstanding measure, in seconds or submissions) stretched by
// the board's latency scale and divided by its usable slot count, a
// completion-time proxy. The +1 makes empty boards rank by capability
// (fast, wide boards first); a board with no usable slots ranks last.
func PlacementScore(b *fpga.Board, load float64) float64 {
	usable := b.UsableSlots()
	if usable == 0 {
		return math.Inf(1)
	}
	return (1 + load) * b.LatencyScale() / float64(usable)
}

// Add registers a new submission, identified by its application, batch
// and priority and arriving at arrival, and returns its index.
func (c *Core) Add(app string, batch, priority int, arrival sim.Time) int {
	c.subs = append(c.subs, entry{app: app, batch: batch, priority: priority, arrival: arrival, last: -1})
	return len(c.subs) - 1
}

// Arrive takes submission idx in at its arrival instant, which must be
// now: with admission it is offered to the controller (sized by g and
// batch; req carries tenant, priority and SLO) and the caller drains
// cleared work with Pump; without, it is dispatched immediately.
func (c *Core) Arrive(idx int, g *taskgraph.Graph, batch int, req admit.Request) {
	if c.ctrl == nil {
		c.dispatch(idx, nil)
		return
	}
	req.Estimate = c.estimate(g, batch)
	req.Arrival = c.subs[idx].arrival
	req.Payload = idx
	_, evicted, out := c.ctrl.Offer(req, c.minLoad())
	if out != admit.Admitted {
		c.Reject(idx, out.String())
		return
	}
	if evicted != nil {
		c.Reject(evicted.Request().Payload.(int), admit.Shed.String())
	}
}

// Pump dispatches every ticket the admission controller clears.
func (c *Core) Pump() {
	if c.ctrl == nil {
		return
	}
	for _, t := range c.ctrl.Dispatchable() {
		c.dispatch(t.Request().Payload.(int), t)
	}
}

// Release frees an admission slot and, on the next event tick, pumps
// whatever the freed slot clears.
func (c *Core) Release(t *admit.Ticket) {
	if t == nil {
		return
	}
	c.ctrl.Release(t)
	if c.ctrl.QueueDepth() > 0 {
		c.eng.After(0, c.Pump)
	}
}

// AdmissionStats reports the admission controller's counters; the zero
// Stats when admission is disabled.
func (c *Core) AdmissionStats() admit.Stats {
	if c.ctrl == nil {
		return admit.Stats{}
	}
	return c.ctrl.Stats()
}

// estimate is the admission-time work estimate: single-slot latency on
// the fastest-case board, optimistic across heterogeneous boards so the
// deadline test never rejects work a big board could finish in time.
func (c *Core) estimate(g *taskgraph.Graph, batch int) sim.Duration {
	best := hv.SingleSlotLatencyFor(c.boardConfig(0).Board, g, batch)
	for i := 1; i < len(c.boards); i++ {
		if e := hv.SingleSlotLatencyFor(c.boardConfig(i).Board, g, batch); e < best {
			best = e
		}
	}
	return best
}

// minLoad is the least-loaded candidate board's outstanding estimate:
// the admission controller's optimistic view of how soon new work
// could start. With nothing placeable the queue looks infinite.
func (c *Core) minLoad() sim.Duration {
	cands := c.Candidates()
	if len(cands) == 0 {
		return c.cfg.HV.Horizon.Sub(0)
	}
	best := c.boards[cands[0]].OutstandingEstimate()
	for _, b := range cands[1:] {
		if l := c.boards[b].OutstandingEstimate(); l < best {
			best = l
		}
	}
	return best
}

// Reject records that submission idx never reached a board: an
// admission outcome, or the front-end's own shed or placement refusal.
func (c *Core) Reject(idx int, reason string) {
	c.settle(idx, &Outcome{Result: c.unrun(idx), Board: -1, Rejected: true, RejectReason: reason})
}

// unrun is the Result of a submission that never completed: only its
// identity and arrival are known.
func (c *Core) unrun(idx int) hv.Result {
	e := &c.subs[idx]
	return hv.Result{AppID: -1, App: e.app, Batch: e.batch, Priority: e.priority, Arrival: e.arrival, FirstLaunch: -1}
}

// dispatch places one admitted submission, giving the front-end's
// Dispatch hook the first claim.
func (c *Core) dispatch(idx int, t *admit.Ticket) {
	if c.hooks.Dispatch != nil && c.hooks.Dispatch(idx, t) {
		return
	}
	c.place(parked{idx: idx, t: t})
}

// Bind records that board b's local submission id runs submission idx,
// holding ticket t (nil when the front-end holds the ticket itself),
// and keeps the liveness poll armed.
func (c *Core) Bind(b int, id int64, idx int, t *admit.Ticket) {
	c.bound[b][id] = binding{idx: idx, t: t}
	c.subs[idx].last = b
	if c.mon != nil {
		c.mon.Kick()
	}
}

// Forget drops board b's binding of local ID id (a cancelled copy).
func (c *Core) Forget(b int, id int64) { delete(c.bound[b], id) }

// Fault records a dispatch-time submit failure, surfaced from Outcomes —
// never a panic: a malformed submission must not take down the whole
// run — and frees the admission slot the failed dispatch held.
func (c *Core) Fault(err error, t *admit.Ticket) {
	c.errs = append(c.errs, err)
	if c.ctrl != nil {
		c.ctrl.Release(t)
	}
}

// onRetire is every board's retire hook: the front-end's Retired hook
// first, then parked work is woken, then the retiring submission's
// admission slot is released, each follow-up on the next event tick.
func (c *Core) onRetire(board int, id int64) {
	bd, ok := c.bound[board][id]
	if c.mon != nil {
		c.mon.Tracker(board).ReportSuccess()
	}
	if ok && c.hooks.Retired != nil {
		c.hooks.Retired(board, id, bd.idx)
	}
	if c.mon != nil && len(c.parked) > 0 {
		c.eng.After(0, c.unpark)
	}
	if ok && bd.t != nil {
		c.bound[board][id] = binding{idx: bd.idx}
		c.Release(bd.t)
	}
}

// settle records submission idx's terminal outcome, exactly once.
func (c *Core) settle(idx int, o *Outcome) {
	e := &c.subs[idx]
	if e.out != nil {
		c.errs = append(c.errs, fmt.Errorf("%s: submission %d reached a second outcome", c.cfg.Name, idx))
		return
	}
	e.out = o
}

// completed is the outcome of a board's report for submission idx.
// Re-dispatched work keeps its original arrival, so failover latency
// shows up in the metrics it actually cost.
func (c *Core) completed(idx, board int, r hv.Result) Outcome {
	e := &c.subs[idx]
	if e.retries > 0 {
		r.Arrival = e.arrival
		if r.FirstLaunch >= 0 {
			r.Wait = r.FirstLaunch.Sub(e.arrival)
		}
		r.Response = r.Retire.Sub(e.arrival)
	}
	return Outcome{Result: r, Board: board, Attempts: e.retries + 1}
}

// Run drives every shard engine until its boards drain (bounded by the
// horizon), then returns Outcomes.
func (c *Core) Run() ([]Outcome, error) {
	// Drain rather than run to the horizon: DrainUntil leaves the clock
	// at the last fired event (the makespan), so Energy sampled after
	// Run prices static power over time actually spanned by work, not
	// over the idle tail out to the horizon.
	for _, e := range c.engs {
		e.DrainUntil(c.cfg.HV.Horizon)
	}
	return c.Outcomes()
}

// Outcomes settles a drained run: work still parked or queued strands,
// and every board's report is collected. It returns one outcome per
// submission index; dispatch failures accumulated during the run are
// returned joined.
func (c *Core) Outcomes() ([]Outcome, error) {
	c.strand()
	if err := errors.Join(c.errs...); err != nil {
		return nil, err
	}
	// Outcomes settled earlier were allocated one by one; the ones
	// collected here settle straight into their slot of out.
	out := make([]Outcome, len(c.subs))
	for i, b := range c.boards {
		results, err := b.Collect()
		if err != nil {
			return nil, fmt.Errorf("%s: board %d: %w", c.cfg.Name, i, err)
		}
		for _, r := range results {
			bd, ok := c.bound[i][r.AppID]
			if !ok {
				return nil, fmt.Errorf("%s: board %d reported unknown app %d", c.cfg.Name, i, r.AppID)
			}
			out[bd.idx] = c.completed(bd.idx, i, r)
			c.settle(bd.idx, &out[bd.idx])
		}
	}
	if err := errors.Join(c.errs...); err != nil {
		return nil, err
	}
	if c.ctrl != nil && c.ctrl.QueueDepth() > 0 {
		return nil, fmt.Errorf("%s: %d admitted submissions still queued at horizon", c.cfg.Name, c.ctrl.QueueDepth())
	}
	filled := 0
	for idx, e := range c.subs {
		if e.out != nil {
			out[idx] = *e.out
			filled++
		}
	}
	if filled != len(c.subs) {
		return nil, fmt.Errorf("%s: %d results for %d submissions", c.cfg.Name, filled, len(c.subs))
	}
	return out, nil
}
