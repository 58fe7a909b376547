// Command perfbench is the repository benchmark. It runs one workload
// through the simulator's public layers (hv, cluster, fleet, workload
// streams and experiments.NewPolicy), checks that the simulated results
// are correct, and prints the metrics named in BENCHMARK.json:
//
//	perfbench --workload paper|fleet|cluster-faults --seed N --seconds S --trace 0|1
//
// With --trace 0 it repeats untraced passes (raw policies, no observer)
// for S seconds and reports the end-to-end metrics as medians over the
// passes. With --trace 1 it runs one untraced and one traced pass and
// reports the per-layer metrics: the traced pass wraps every policy in a
// timing decorator and counts trace kinds on an observer; on paper and
// cluster-faults it also attaches per-board invariant checkers.
//
// Every pass feeds the correctness gate: completed + refused ==
// submitted, no run error, no checker violation, and one digest of the
// per-submission simulated results shared by every pass of the
// invocation, traced or not. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Seed 20230617 is held out: claims made on other seeds are re-checked
// on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"syscall"
	"time"

	"nimblock/internal/metrics"
	"nimblock/internal/sched"
	"nimblock/internal/trace"
	"nimblock/internal/workload"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     size
}

func main() {
	var o options
	var tr int
	flag.StringVar(&o.workload, "workload", "", "workload: paper, fleet or cluster-faults")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds to keep measuring untraced passes")
	flag.IntVar(&tr, "trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass")
	flag.Parse()
	if tr != 0 && tr != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.traced, o.size = tr == 1, fullSize
	rep, err := invoke(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line, preceded on output by its run
// metadata.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	meta       map[string]any
	violations []string
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) write(w io.Writer) error {
	meta, err := json.Marshal(map[string]any{"meta": r.meta})
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", meta, line)
	return err
}

// passResult is one set-up-and-run of a workload.
type passResult struct {
	out    *outcome
	digest uint64
	setup  time.Duration
	wall   time.Duration
	runs   []float64 // host seconds of each step's run
	allocs uint64
}

// runPass runs one pass, timing set-up and run apart. The heap is
// collected first so a pass does not pay for its predecessor's garbage.
func runPass(def workloadDef, o options, pr *probe) (passResult, error) {
	runtime.GC()
	var p passResult
	p.out = newOutcome()
	t := time.Now()
	steps := def.steps(o.seed, o.size, pr)
	p.setup += time.Since(t)
	for _, st := range steps {
		t = time.Now()
		run, err := st()
		p.setup += time.Since(t)
		if err != nil {
			return p, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		a := heapAllocs()
		t = time.Now()
		err = run(p.out)
		d := time.Since(t)
		p.wall += d
		p.runs = append(p.runs, d.Seconds())
		p.allocs += heapAllocs() - a
		if err != nil {
			return p, fmt.Errorf("%s run: %w", def.name, err)
		}
	}
	p.digest = p.out.digest()
	return p, nil
}

// minSetups is how many set-up samples the end-to-end setup_s median
// takes at least; passes that are too long to repeat that often are
// topped up with set-ups whose runs are dropped.
const minSetups = 5

// setUpOnly times the set-up of one pass and drops what it built.
func setUpOnly(def workloadDef, o options) (time.Duration, error) {
	runtime.GC()
	t := time.Now()
	for _, st := range def.steps(o.seed, o.size, nil) {
		if _, err := st(); err != nil {
			return 0, fmt.Errorf("%s set-up: %w", def.name, err)
		}
	}
	return time.Since(t), nil
}

// heapAllocs is the process's cumulative heap allocation count, tiny
// allocations included.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// invoke runs the workload as o asks and builds the report. Errors are
// reserved for runs that could not produce results at all; a failed
// correctness gate yields a report with Correct false.
func invoke(o options, log io.Writer) (*report, error) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == o.workload })
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	def := workloads[i]
	rep := &report{Metrics: map[string]metric{}, meta: map[string]any{
		"workload":      def.name,
		"seed":          o.seed,
		"trace":         o.traced,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"fleet_workers": fleetWorkers,
		"go":            runtime.Version(),
	}}
	var passes []passResult
	var pr *probe
	start := time.Now()
	for len(passes) < 2 || (!o.traced && time.Since(start).Seconds() < o.seconds) {
		if o.traced && len(passes) == 1 {
			pr = newProbe()
		}
		p, err := runPass(def, o, pr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		fmt.Fprintf(log, "pass %d: setup %.3fs run %.3fs events %d digest %016x\n",
			len(passes), p.setup.Seconds(), p.wall.Seconds(), p.out.events, p.digest)
	}
	rep.meta["passes"] = len(passes)
	rep.meta["digest"] = fmt.Sprintf("%016x", passes[0].digest)
	rep.Correct = true
	for _, p := range passes {
		rep.Attempted += p.out.submitted
		rep.Failed += p.out.refused
		if p.out.completed+p.out.refused != p.out.submitted {
			rep.violations = append(rep.violations, fmt.Sprintf("conservation: %d completed + %d refused != %d submitted",
				p.out.completed, p.out.refused, p.out.submitted))
		}
		if p.digest != passes[0].digest {
			rep.violations = append(rep.violations, fmt.Sprintf("digest %016x differs from first pass %016x", p.digest, passes[0].digest))
		}
	}
	if pr != nil {
		rep.violations = append(rep.violations, pr.violations...)
	}
	if len(rep.violations) > 0 {
		rep.Correct = false
		rep.Failed += len(rep.violations)
		for _, v := range rep.violations {
			fmt.Fprintln(log, "violation:", v)
		}
	}
	if o.traced {
		perLayer(rep, def, o, passes[0], passes[1], pr)
	} else {
		var setups []float64
		for _, p := range passes {
			setups = append(setups, p.setup.Seconds())
		}
		for len(setups) < minSetups {
			d, err := setUpOnly(def, o)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		endToEnd(rep, passes, median(setups))
	}
	printTable(log, rep)
	return rep, nil
}

// endToEnd reports the user-visible metrics: host costs as medians over
// the untraced passes (setup is the median set-up time), simulated
// results from the first pass (the digest gate has proven every pass
// identical). wall_s sums, step by step, each step's median run time
// over the passes: on paper, whose pass is 1260 short replays, a burst
// of host noise then costs only the steps it hit in one pass rather than
// the whole pass. A one-step pass makes it the median pass time.
func endToEnd(rep *report, passes []passResult, setup float64) {
	var allocs []float64
	for _, p := range passes {
		allocs = append(allocs, float64(p.allocs)/float64(p.out.events))
	}
	wall := 0.0
	for i := range passes[0].runs {
		var runs []float64
		for _, p := range passes {
			runs = append(runs, p.runs[i])
		}
		wall += median(runs)
	}
	out := passes[0].out
	rep.set("setup_s", setup, "s")
	rep.set("wall_s", wall, "s")
	rep.set("events_per_s", float64(out.events)/wall, "1/s")
	rep.set("allocs_per_event", median(allocs), "count")
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB")
	rep.set("response_p50_s", metrics.Percentile(out.responses, 50), "s")
	rep.set("response_p99_s", metrics.Percentile(out.responses, 99), "s")
	rep.set("done_ratio", float64(out.completed)/float64(out.submitted), "ratio")
	rep.set("energy_j_per_done", out.energy.TotalJoules()/float64(out.completed), "J")
	rep.meta["response_samples"] = len(out.responses)
	rep.meta["response_beyond_p99"] = beyond(out.responses, metrics.Percentile(out.responses, 99))
}

// perLayer reports the traced pass's layer metrics. plain is the
// untraced pass of the same invocation; run.other_s and
// obs.trace_overhead_s are taken against its wall time.
func perLayer(rep *report, def workloadDef, o options, plain, traced passResult, pr *probe) {
	out := traced.out
	s := pr.summary()
	done := float64(max(out.completed, 1))
	events := float64(max(out.events, 1))

	rep.set("workload.next_ns", timeNext(def.streams(o.seed, o.size)), "ns")
	rep.set("sim.events", float64(out.events), "count")
	rep.set("sim.events_per_done", float64(out.events)/done, "count")

	rep.set("sched.calls", float64(s.total), "count")
	rep.set("sched.calls_per_event", float64(s.total)/events, "count")
	for r := range s.calls {
		rep.set("sched.calls."+sched.Reason(r).String(), float64(s.calls[r]), "count")
	}
	rep.set("sched.busy_s", s.busy.Seconds(), "s")
	rep.set("sched.ns_per_call_p50", s.p50NS, "ns")
	rep.set("sched.ns_per_call_p99", s.p99NS, "ns")
	for _, name := range paperPolicies {
		rep.set("sched."+name+".ns_per_call", s.perPolicyNS[name], "ns")
	}
	rep.set("sched.idle_call_ratio", float64(s.idle)/float64(max(s.total, 1)), "ratio")

	rep.set("hv.reconfigure_calls", float64(s.reconfCalls), "count")
	rep.set("hv.reconfigure_busy_s", s.reconfBusy.Seconds(), "s")
	rep.set("hv.reconfigure_err", float64(s.reconfErr), "count")
	rep.set("hv.preempt_request_calls", float64(s.preemptCalls), "count")
	rep.set("hv.preempt_request_busy_s", s.preemptBusy.Seconds(), "s")
	k := pr.kinds
	rep.set("hv.reconfigs", float64(k.Count(trace.KindReconfigDone)), "count")
	rep.set("hv.preempts", float64(k.Count(trace.KindPreempt)+k.Count(trace.KindCheckpoint)), "count")
	rep.set("hv.item_restarts", float64(k.Count(trace.KindItemStart)-k.Count(trace.KindItemDone)), "count")
	rep.set("hv.ckpt_saves", float64(k.Count(trace.KindCheckpointSave)), "count")
	rep.set("hv.restores", float64(k.Count(trace.KindRestore)), "count")
	rep.set("hv.cap_busy_s", pr.capBusy.Seconds(), "s")
	rep.set("hv.wait_s", out.wait.Seconds(), "s")
	rep.set("hv.reconfig_s", out.reconfig.Seconds(), "s")
	rep.set("hv.run_s", out.run.Seconds(), "s")

	other := max(plain.wall.Seconds()-s.busy.Seconds(), 0)
	rep.set("run.other_s", other, "s")

	e := out.energy
	util := 0.0
	if e.UsableSlotSeconds > 0 {
		util = e.OccupiedSlotSeconds / e.UsableSlotSeconds
	}
	rep.set("fpga.slot_utilization", util, "ratio")
	rep.set("fpga.energy_static_j", e.StaticJoules, "J")
	rep.set("fpga.energy_active_j", e.ActiveJoules, "J")

	a := out.admit
	rep.set("admit.offered", float64(a.Offered), "count")
	rep.set("admit.admitted", float64(a.Admitted), "count")
	rep.set("admit.shed", float64(a.Shed), "count")
	rep.set("admit.evicted", float64(a.Evicted), "count")
	rep.set("admit.peak_queue", float64(a.PeakQueueDepth), "count")

	h := out.health
	rep.set("health.deaths", float64(h.Deaths), "count")
	rep.set("health.redispatched", float64(h.Redispatched), "count")
	rep.set("health.migrated_items", float64(h.MigratedItems), "count")
	rep.set("health.failed", float64(h.FailedSubmissions), "count")
	rep.set("health.wasted_work_s", h.WastedWork.Seconds(), "s")
	rep.set("health.migrated_work_s", h.MigratedWork.Seconds(), "s")

	perEpoch, visits, arrivals := 0.0, 0.0, 0.0
	if out.epochs > 0 {
		perEpoch = other / float64(out.epochs)
		visits = float64(out.epochs) * float64(out.boards)
		arrivals = float64(out.submitted) / float64(out.epochs)
	}
	rep.set("fleet.epochs", float64(out.epochs), "count")
	rep.set("fleet.arrivals_per_epoch", arrivals, "count")
	rep.set("fleet.board_visits", visits, "count")
	rep.set("fleet.board_jain", out.boardJain, "ratio")
	rep.set("fleet.other_s_per_epoch", perEpoch, "s")

	rep.set("obs.trace_overhead_s", traced.wall.Seconds()-plain.wall.Seconds(), "s")
	rep.set("response.beyond_p99", float64(beyond(out.responses, metrics.Percentile(out.responses, 99))), "count")
}

// timeNext times Stream.Next over twins of the workload's streams and
// returns nanoseconds per event.
func timeNext(streams []*workload.Stream) float64 {
	n := 0
	t0 := time.Now()
	for _, st := range streams {
		for _, ok := st.Next(); ok; _, ok = st.Next() {
			n++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(max(n, 1))
}

// beyond counts samples strictly above the threshold.
func beyond(xs []float64, threshold float64) int {
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return n
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printTable writes the metrics for humans.
func printTable(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
}
