package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"nimblock/internal/admit"
	"nimblock/internal/apps"
	"nimblock/internal/cluster"
	"nimblock/internal/faults"
	"nimblock/internal/fleet"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/trace"
	"nimblock/internal/workload"
)

// size scales every workload; fullSize is what BENCHMARK.json measures.
type size struct {
	paperSeqs       int // sequences per congestion scenario
	fleetBoards     int
	fleetArrivals   int
	clusterArrivals int
}

var fullSize = size{paperSeqs: 60, fleetBoards: 400, fleetArrivals: 10_000, clusterArrivals: 4_000}

// The power model every board carries, in watts per slot (the values of
// the repository's heterogeneity study). It is post-hoc accounting: no
// benchmarked policy reads it, so it changes no scheduling decision.
const (
	staticWatts = 2.5
	activeWatts = 1.5
)

// outcome is what one pass produced: the per-submission results folded
// into a digest and the aggregates the metrics are computed from.
type outcome struct {
	submitted, completed, refused int
	responses                     []float64 // simulated seconds, completed only
	events                        int64
	energy                        hv.EnergyStats
	wait, reconfig, run           sim.Duration // sums over completed submissions

	admit          admit.Stats
	health         health.Stats
	epochs, boards int
	boardJain      float64

	sum    hash.Hash64
	digBuf [8]byte
}

func newOutcome() *outcome { return &outcome{sum: fnv.New64a()} }

func (o *outcome) mix(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(o.digBuf[:], uint64(v))
		o.sum.Write(o.digBuf[:])
	}
}

// add books one submission's result; refused covers shed, rejected and
// permanently failed submissions.
func (o *outcome) add(r hv.Result, board int, refused bool) {
	o.submitted++
	status := int64(0)
	if refused {
		status = 1
		o.refused++
	} else {
		o.completed++
		o.responses = append(o.responses, r.Response.Seconds())
		o.wait += r.Wait
		o.reconfig += r.Reconfig
		o.run += r.Run
	}
	o.mix(status, int64(board), int64(r.Batch), int64(r.Priority), int64(r.Arrival), int64(r.FirstLaunch),
		int64(r.Retire), int64(r.Response), int64(r.Run), int64(r.Reconfig), int64(r.Wait),
		int64(r.Preemptions), int64(r.Reconfigurations))
}

func (o *outcome) addEnergy(e hv.EnergyStats) {
	o.energy.StaticJoules += e.StaticJoules
	o.energy.ActiveJoules += e.ActiveJoules
	o.energy.OccupiedSlotSeconds += e.OccupiedSlotSeconds
	o.energy.UsableSlotSeconds += e.UsableSlotSeconds
}

// digest seals the result stream together with the run totals the
// per-submission results do not carry.
func (o *outcome) digest() uint64 {
	o.mix(int64(o.submitted), int64(o.completed), int64(o.refused), o.events,
		int64(math.Float64bits(o.energy.TotalJoules())), int64(o.epochs))
	return o.sum.Sum64()
}

// A pass is a series of steps. A step sets up part of the workload and
// returns the timed run of what it set up, which books its results into
// the pass's outcome. Paper takes one step per replay, so only one
// hypervisor is alive at a time; the other workloads take one step.
type (
	step    func() (runFunc, error)
	runFunc func(out *outcome) error
)

// workloadDef names a workload, lists the steps of one pass, and
// rebuilds its arrival streams (the twins the traced run times Next on).
type workloadDef struct {
	name    string
	steps   func(seed int64, sz size, pr *probe) []step
	streams func(seed int64, sz size) []*workload.Stream
}

var workloads = []workloadDef{
	{"paper", paperSteps, paperStreams},
	{"fleet", fleetSteps, fleetStreams},
	{"cluster-faults", clusterSteps, clusterStreams},
}

// poweredHV is the default (paper) hypervisor configuration with the
// benchmark's power model.
func poweredHV() hv.Config {
	c := hv.DefaultConfig()
	c.Board.StaticWattsPerSlot = staticWatts
	c.Board.ActiveWattsPerSlot = activeWatts
	return c
}

// graphCache builds each application's task graph once per pass.
type graphCache map[string]*taskgraph.Graph

func (c graphCache) get(name string) (*taskgraph.Graph, error) {
	if g, ok := c[name]; ok {
		return g, nil
	}
	g, err := apps.Graph(name)
	if err != nil {
		return nil, err
	}
	c[name] = g
	return g, nil
}

// paperPolicies are the seven policies the repository implements.
var paperPolicies = []string{"Baseline", "FCFS", "PREMA", "RR", "Nimblock", "NimblockCheckpoint", "NimblockEnergy"}

// paperStreams is the section 5.1 stimulus: sz.paperSeqs sequences of 20
// events for each of the standard, stress and real-time scenarios.
func paperStreams(seed int64, sz size) []*workload.Stream {
	var out []*workload.Stream
	for si, sc := range workload.Scenarios() {
		for i := 0; i < sz.paperSeqs; i++ {
			out = append(out, workload.NewStream(workload.Spec{Scenario: sc}, workload.DeriveSeed(seed, si*1000+i)))
		}
	}
	return out
}

func paperSteps(seed int64, sz size, pr *probe) []step {
	cfg := poweredHV()
	graphs := graphCache{}
	var steps []step
	for _, st := range paperStreams(seed, sz) {
		var seq workload.Sequence
		for ev, ok := st.Next(); ok; ev, ok = st.Next() {
			seq = append(seq, ev)
		}
		for _, name := range paperPolicies {
			steps = append(steps, func() (runFunc, error) {
				pol, err := pr.policy(name, cfg.Board)
				if err != nil {
					return nil, err
				}
				hcfg := cfg
				var chk *schedtest.Checker
				if pr != nil {
					chk = schedtest.NewChecker()
					hcfg.Observer = pr.observer(chk)
				}
				eng := sim.NewEngine()
				h, err := hv.New(eng, hcfg, pol)
				if err != nil {
					return nil, err
				}
				for _, ev := range seq {
					g, err := graphs.get(ev.App)
					if err != nil {
						return nil, err
					}
					if err := h.Submit(g, ev.Batch, ev.Priority, ev.Arrival); err != nil {
						return nil, err
					}
				}
				return func(out *outcome) error {
					// Drain rather than hv.Run, which parks the clock at the
					// horizon and would price static power over the idle tail.
					eng.DrainUntil(cfg.Horizon)
					res, err := h.Collect()
					if err != nil {
						return err
					}
					if len(res) != len(seq) {
						return fmt.Errorf("%d results for %d submissions", len(res), len(seq))
					}
					for _, x := range res {
						out.add(x, 0, false)
					}
					out.events += eng.Fired()
					es := h.Energy()
					out.addEnergy(es)
					if pr != nil {
						pr.addCAP(h)
						pr.violate(chk.Finish(len(res)))
						pr.violate(chk.CheckEnergy(cfg.Board.Slots, staticWatts, activeWatts, eng.Now(), es.TotalJoules()))
					}
					return nil
				}, nil
			})
		}
	}
	return steps
}

// The fleet workload is the 100x cell of the repository's fleet sweep.
const (
	fleetShards   = 8
	fleetBatchCap = 4
	fleetEpoch    = 100 * sim.Millisecond
)

// fleetRate keeps per-board load at the sweep's 0.125 arrivals/s per 4
// boards.
func fleetRate(sz size) float64 { return 0.125 * float64(sz.fleetBoards) / 4 }

// fleetWorkers is how many goroutines advance the shards. One: on a
// shared 2-vCPU host two workers ran each pass about 15% slower (the
// per-epoch barrier waits on the slower core), and their host times
// spread too widely across runs. Results are identical for any worker
// count.
const fleetWorkers = 1

func fleetStreams(seed int64, sz size) []*workload.Stream {
	return []*workload.Stream{workload.NewStream(workload.Spec{
		PoissonRate: fleetRate(sz),
		BatchCap:    fleetBatchCap,
		Events:      sz.fleetArrivals,
	}, workload.DeriveSeed(seed, 1))}
}

func fleetSteps(seed int64, sz size, pr *probe) []step {
	return []step{func() (runFunc, error) { return setUpFleet(seed, sz, pr) }}
}

func setUpFleet(seed int64, sz size, pr *probe) (runFunc, error) {
	cfg := poweredHV()
	cfg.Observer = pr.observer()
	var mkErr error
	f, err := fleet.New(fleet.Config{
		Shards:         min(fleetShards, sz.fleetBoards),
		Boards:         sz.fleetBoards,
		HV:             cfg,
		Epoch:          fleetEpoch,
		Workers:        fleetWorkers,
		MaxOutstanding: 64 * sz.fleetBoards,
	}, func(b hv.Config) sched.Scheduler {
		p, err := pr.policy("Nimblock", b.Board)
		if err != nil && mkErr == nil {
			mkErr = err
		}
		return p
	})
	if err != nil {
		return nil, err
	}
	if mkErr != nil {
		return nil, mkErr
	}
	stream := fleetStreams(seed, sz)[0]
	return func(out *outcome) error {
		res, err := f.Run(stream)
		if err != nil {
			return err
		}
		for _, r := range res {
			out.add(r.Result, r.Board, r.Rejected)
		}
		st := f.Stats()
		if st.Submitted != out.submitted || st.Completed != out.completed {
			return fmt.Errorf("stats count %d/%d, results %d/%d", st.Completed, st.Submitted, out.completed, out.submitted)
		}
		out.events = st.EventsFired
		out.addEnergy(st.Energy)
		out.epochs, out.boards, out.boardJain = st.Epochs, sz.fleetBoards, st.BoardFairness
		if pr != nil {
			for g := 0; g < f.Boards(); g++ {
				pr.addCAP(f.Board(g))
			}
		}
		return nil
	}, nil
}

// The cluster-faults workload: one engine, 4 reference and 4 edge boards
// behind hetero-aware dispatch, bounded two-tenant admission, a
// round-robin board-crash schedule, and periodic checkpointing.
const (
	clusterRefBoards   = 4
	clusterEdgeBoards  = 4
	clusterEdgeSlots   = 4
	clusterEdgeScale   = 2
	clusterBatchCap    = 12
	clusterRate        = 0.26 // Poisson arrivals per simulated second
	clusterCkptPeriod  = 50 * sim.Millisecond
	clusterDeaths      = 33
	clusterCrashWindow = 0.75 // share of the arrival window with crashes
	clusterRecovery    = 5 * sim.Second
	clusterRetries     = 6
	clusterCapacity    = 160
	clusterInFlight    = 8
)

var clusterTenants = [2]string{"tenant-a", "tenant-b"}

// clusterPool leaves out DigitRecognition: one arrival of it occupies a
// board for minutes and would decide the tail on its own.
var clusterPool = []string{"LeNet", "ImageCompression", "3DRendering", "OpticalFlow", "AlexNet"}

func clusterStreams(seed int64, sz size) []*workload.Stream {
	return []*workload.Stream{workload.NewStream(workload.Spec{
		PoissonRate: clusterRate,
		BatchCap:    clusterBatchCap,
		Events:      sz.clusterArrivals,
		Pool:        clusterPool,
	}, workload.DeriveSeed(seed, 2))}
}

// clusterMTBF spaces the crashes so the full-size run sees
// clusterDeaths of them; smaller runs see proportionally fewer.
var clusterMTBF = sim.Seconds(float64(fullSize.clusterArrivals) / clusterRate * clusterCrashWindow / (clusterDeaths + 0.5))

// clusterCrashes crashes one board every clusterMTBF, rotating over the
// boards, during the first clusterCrashWindow of the expected arrival
// window. The crash-free tail lets every rebuilt board run long enough
// that its energy does not hinge on the exact makespan.
func clusterCrashes(sz size) []faults.BoardEvent {
	boards := clusterRefBoards + clusterEdgeBoards
	end := sim.Time(sim.Seconds(float64(sz.clusterArrivals) / clusterRate * clusterCrashWindow))
	var out []faults.BoardEvent
	for at, b := sim.Time(clusterMTBF), 0; at < end; at, b = at.Add(clusterMTBF), (b+1)%boards {
		out = append(out, faults.BoardEvent{Kind: faults.BoardCrash, Board: b, At: at, Recover: at.Add(clusterRecovery)})
	}
	return out
}

func clusterSteps(seed int64, sz size, pr *probe) []step {
	return []step{func() (runFunc, error) { return setUpCluster(seed, sz, pr) }}
}

func setUpCluster(seed int64, sz size, pr *probe) (runFunc, error) {
	base := poweredHV()
	base.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: clusterCkptPeriod}
	bcfgs := make([]hv.Config, clusterRefBoards+clusterEdgeBoards)
	for i := range bcfgs {
		bcfgs[i] = base
		if i >= clusterRefBoards {
			bcfgs[i].Board.Slots = clusterEdgeSlots
			bcfgs[i].Board.LatencyScale = clusterEdgeScale
		}
	}
	var watches []*boardWatch
	if pr != nil {
		for i := range bcfgs {
			w := &boardWatch{pr: pr, index: i, slots: bcfgs[i].Board.Slots}
			watches = append(watches, w)
			bcfgs[i].Observer = w
		}
	}
	eng := sim.NewEngine()
	var cl *cluster.Cluster
	var mkErr error
	cl, err := cluster.New(eng, cluster.Config{
		Boards:       len(bcfgs),
		HV:           base,
		BoardConfigs: bcfgs,
		Dispatch:     cluster.HeteroAware,
		Seed:         seed,
		Admission: &admit.Config{
			Capacity:    clusterCapacity,
			MaxInFlight: clusterInFlight,
			Weights:     map[string]float64{clusterTenants[0]: 1, clusterTenants[1]: 1},
		},
		Health:      &health.Options{RetryBudget: clusterRetries},
		BoardFaults: clusterCrashes(sz),
	}, func(b hv.Config) sched.Scheduler {
		if w, ok := b.Observer.(*boardWatch); ok {
			w.rotate(cl, eng.Now())
		}
		p, err := pr.policy("NimblockCheckpoint", b.Board)
		if err != nil && mkErr == nil {
			mkErr = err
		}
		return p
	})
	if err != nil {
		return nil, err
	}
	if mkErr != nil {
		return nil, mkErr
	}
	graphs := graphCache{}
	stream := clusterStreams(seed, sz)[0]
	n := 0
	for ev, ok := stream.Next(); ok; ev, ok = stream.Next() {
		g, err := graphs.get(ev.App)
		if err != nil {
			return nil, err
		}
		opts := cluster.SubmitOptions{Tenant: clusterTenants[n%2], Weight: 1}
		if err := cl.SubmitWith(g, ev.Batch, ev.Priority, ev.Arrival, opts); err != nil {
			return nil, err
		}
		n++
	}
	return func(out *outcome) error {
		res, err := cl.Run()
		if err != nil {
			return err
		}
		if len(res) != n {
			return fmt.Errorf("%d results for %d submissions", len(res), n)
		}
		for _, r := range res {
			out.add(r.Result, r.Board, r.Rejected || r.Failed)
			out.mix(int64(r.Attempts))
		}
		out.events = eng.Fired()
		out.addEnergy(cl.Energy())
		out.admit, out.health = cl.AdmissionStats(), cl.FailoverStats()
		retired, seeded := 0, 0
		for i, w := range watches {
			retired += w.finish(cl.Board(i), eng.Now())
			seeded += w.seeded
		}
		if pr != nil && retired != out.completed {
			pr.violate(fmt.Errorf("cluster-faults: %d retire events for %d completed submissions", retired, out.completed))
		}
		if pr != nil && seeded > out.health.MigratedItems {
			pr.violate(fmt.Errorf("cluster-faults: %d restores of migrated snapshots, %d items migrated", seeded, out.health.MigratedItems))
		}
		return nil
	}, nil
}

// boardWatch checks one cluster board index. A dead board is rebuilt as
// a fresh hypervisor on the same index, so the watch starts a new
// checker per hypervisor generation. A dead generation is checked only
// for streaming violations: its in-flight work was evacuated without
// trace events, so end-of-run conservation cannot balance there.
type boardWatch struct {
	pr      *probe
	index   int
	slots   int
	chk     *schedtest.Checker
	born    sim.Time
	saved   map[itemKey]bool // items this generation checkpointed
	retires int              // retire events of the current generation
	retired int              // retire events of finished generations
	// seeded counts restores (and lost-checkpoint faults) of snapshots
	// migrated in from a dead board. The checker only sees saves made on
	// its own board and would flag them, so they bypass it and are
	// checked against the failover layer's migrated-item count instead.
	seeded int
}

type itemKey struct {
	app        int64
	task, item int
}

func (w *boardWatch) Observe(e trace.Event) {
	w.pr.kinds.Observe(e)
	k := itemKey{e.AppID, e.Task, e.Item}
	switch e.Kind {
	case trace.KindCheckpointSave, trace.KindCheckpoint:
		if e.Progress > 0 {
			w.saved[k] = true
		}
	case trace.KindRestore, trace.KindCheckpointFault:
		if !w.saved[k] {
			w.seeded++
			return
		}
	case trace.KindRetire:
		w.retires++
	}
	w.chk.Observe(e)
}

// rotate runs as the cluster builds a hypervisor for the board: during
// cluster.New (cl is still nil) and when a dead board is rebuilt, at
// which point cl.Board still returns the outgoing generation.
func (w *boardWatch) rotate(cl *cluster.Cluster, now sim.Time) {
	if w.chk != nil {
		w.pr.violate(w.chk.Err())
		w.pr.addCAP(cl.Board(w.index))
		w.retired += w.retires
	}
	w.chk, w.born, w.retires, w.saved = schedtest.NewChecker(), now, 0, map[itemKey]bool{}
}

// finish checks the live generation after the run and reports the
// board's retire events over all generations. The checker integrates
// energy from time zero; a rebuilt generation's board only from its
// birth, so the static energy of the unborn span is added back.
func (w *boardWatch) finish(b hv.Instance, until sim.Time) int {
	w.pr.violate(w.chk.Finish(w.retires))
	w.pr.addCAP(b)
	unborn := staticWatts * float64(w.slots) * sim.Duration(w.born).Seconds()
	w.pr.violate(w.chk.CheckEnergy(w.slots, staticWatts, activeWatts, until, b.Energy().TotalJoules()+unborn))
	return w.retired + w.retires
}
