// Command nimblock-paper regenerates every table and figure from the
// paper's evaluation (Section 5) on the simulated platform and prints the
// same rows and series the paper reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"

	"nimblock/internal/experiments"
	"nimblock/internal/obs"
	"nimblock/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: all, table1, table2, table3, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig7ablation, interconnect, scaleout, slotsweep, utilization, optimality, preempt, reconfigsweep, loadsweep, estimates, chaos, overload, checkpoint, failover, hetero, fleet")
		quick      = flag.Bool("quick", false, "reduced scale (2 sequences x 8 events) for fast runs")
		seed       = flag.Int64("seed", 0, "override the base random seed")
		workers    = flag.Int("workers", 0, "worker pool size for independent runs (0: NIMBLOCK_PARALLEL or GOMAXPROCS; 1: serial)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
		serve      = flag.String("serve", "", "serve live aggregate metrics over HTTP on this address (e.g. :9090) while experiments run; Prometheus text at /metrics, JSON at /metrics.json; blocks after the run until interrupted")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	var reg *obs.Registry
	if *serve != "" {
		// One registry aggregates every simulation the harness fans out;
		// each run gets its own Metrics sink so pairing state stays
		// run-local while the instruments (shared, atomic) accumulate.
		reg = obs.NewRegistry()
		slots := cfg.HV.Board.Slots
		cfg.NewObserver = func() obs.Sink { return obs.NewMetrics(reg, slots) }
		go func() {
			if err := http.ListenAndServe(*serve, reg.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fail(f.Close())
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		fail(err)
		fail(trace.Start(f))
		defer func() {
			trace.Stop()
			fail(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			fail(err)
			runtime.GC() // settle allocations so the profile reflects live heap
			fail(pprof.WriteHeapProfile(f))
			fail(f.Close())
		}()
	}
	fail(render(os.Stdout, cfg, *exp, reg))

	if *serve != "" {
		fmt.Printf("serving metrics on %s (/metrics, /metrics.json); Ctrl-C to exit\n", *serve)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// render runs every experiment named in exps (comma-separated; "all"
// selects them all) and writes its tables and figures to w, always in
// the same order. reg, when non-nil, receives the live instruments of
// the fleet and overload sweeps. It stops at the first failing
// experiment.
func render(w io.Writer, cfg experiments.Config, exps string, reg *obs.Registry) error {
	want := map[string]bool{}
	for _, e := range strings.Split(exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	var err error
	run := func(name string) bool { return err == nil && (want["all"] || want[name]) }
	show := func(r interface{ Render() string }, e error) {
		if err = e; err == nil {
			fmt.Fprintln(w, r.Render())
		}
	}

	if run("table1") {
		fmt.Fprintln(w, experiments.Table1())
	}
	if run("table2") {
		fmt.Fprintln(w, experiments.Table2())
	}
	if run("table3") {
		show(experiments.Table3(cfg))
	}

	data := map[workload.Scenario]*experiments.ScenarioData{}
	if run("fig5") || run("fig6") || run("fig7") || run("fig8") {
		for _, sc := range workload.Scenarios() {
			if data[sc], err = experiments.RunScenario(cfg, sc, experiments.PolicyNames); err != nil {
				return err
			}
		}
	}
	if run("fig5") {
		show(experiments.Fig5(data))
	}
	if run("fig6") {
		show(experiments.Fig6(data))
	}
	if run("fig7") {
		show(experiments.Fig7(data))
	}
	if run("fig8") {
		show(experiments.Fig8(data[workload.Standard]))
	}
	if run("estimates") {
		show(experiments.EstimateAccuracy(cfg))
	}
	if run("loadsweep") {
		show(experiments.LoadSweep(cfg))
	}
	if run("reconfigsweep") {
		show(experiments.ReconfigSweep(cfg))
	}
	if run("preempt") {
		show(experiments.PreemptStudy(cfg))
	}
	if run("optimality") {
		show(experiments.Optimality(cfg))
	}
	if run("chaos") {
		show(experiments.Chaos(cfg))
	}
	if run("checkpoint") {
		show(experiments.CheckpointAblation(cfg))
	}
	if run("failover") {
		show(experiments.Failover(cfg))
	}
	if run("hetero") {
		show(experiments.Hetero(cfg))
	}
	if run("fleet") {
		// The registry (when -serve is set) exposes the largest cell's
		// per-shard routing and pending-depth instruments.
		show(experiments.Fleet(cfg, reg))
	}
	if run("overload") {
		// The shared registry (when -serve is set) doubles as the live
		// admission side-channel: admit_* counters and queue gauges.
		show(experiments.Overload(cfg, reg))
	}
	if run("utilization") {
		show(experiments.UtilizationStudy(cfg))
	}
	if run("slotsweep") {
		show(experiments.SlotSweep(cfg))
	}
	if run("scaleout") {
		show(experiments.ScaleOut(cfg))
	}
	if run("interconnect") {
		show(experiments.InterconnectStudy(cfg))
	}
	if run("fig7ablation") {
		f, e := experiments.DeadlineAblation(cfg)
		show(f, e)
		if err == nil {
			fmt.Fprintln(w, f.Summary())
			fmt.Fprintln(w)
		}
	}
	if run("fig9") || run("fig10") || run("fig11") {
		ab, e := experiments.RunAblation(cfg)
		if e != nil {
			return e
		}
		if run("fig9") {
			show(experiments.Fig9(ab))
		}
		if run("fig10") {
			show(experiments.Fig10(ab))
		}
		if run("fig11") {
			show(experiments.Fig11(ab))
		}
	}
	return err
}
