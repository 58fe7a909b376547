// Command nimblock-sim replays one event sequence against one scheduling
// algorithm on the simulated ZCU106 overlay and reports per-application
// response times, mirroring the serial-console reports of the paper's
// testbed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"

	"nimblock/internal/apps"
	"nimblock/internal/experiments"
	"nimblock/internal/hv"
	"nimblock/internal/metrics"
	"nimblock/internal/obs"
	"nimblock/internal/report"
	"nimblock/internal/sim"
	"nimblock/internal/svgchart"
	"nimblock/internal/trace"
	"nimblock/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command-line mistake; it exits with status 2.
type usageError struct{ error }

// run simulates one sequence as the command line asks and writes every
// report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("nimblock-sim", flag.ExitOnError)
	var (
		algo      = fs.String("algo", "Nimblock", "scheduling algorithm: Baseline, FCFS, PREMA, RR, Nimblock[NoPreempt|NoPipe|NoPreemptNoPipe]")
		scenario  = fs.String("scenario", "stress", "congestion scenario when generating events: standard, stress, real-time")
		events    = fs.Int("events", workload.EventsPerSequence, "events to generate")
		seed      = fs.Int64("seed", 1, "random seed for event generation")
		batch     = fs.Int("batch", 0, "fixed batch size (0 = random)")
		in        = fs.String("in", "", "JSON event file from nimblock-events (overrides generation; first sequence used)")
		gantt     = fs.Bool("gantt", false, "render a per-slot Gantt chart")
		dump      = fs.Bool("trace", false, "dump the full execution trace")
		summary   = fs.Bool("summary", false, "print trace-derived per-application aggregates")
		csv       = fs.Bool("csv", false, "emit the result table as CSV")
		ganttSVG  = fs.String("gantt-svg", "", "write an SVG slot-occupancy timeline to this file")
		serve     = fs.String("serve", "", "serve live metrics over HTTP on this address (e.g. :9090); Prometheus text at /metrics, JSON at /metrics.json; blocks after the run until interrupted")
		traceJSON = fs.String("trace-json", "", "write the execution trace as JSON to this file (consumable by nimblock-events -spans)")
		jsonl     = fs.String("jsonl", "", "stream trace events live to this file as JSON Lines")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	seq, err := loadOrGenerate(*in, *scenario, *events, *seed, *batch)
	if err != nil {
		return usageError{err}
	}
	if *algo == "all" {
		return compareAll(w, seq)
	}
	cfg := experiments.DefaultConfig()

	// Every view of the run is a sink on the trace emission point: the
	// recorded log for the trace reports, a metrics registry for -serve
	// and a JSONL stream for -jsonl.
	var sinks []obs.Sink
	var lg *trace.Log
	if *gantt || *dump || *summary || *ganttSVG != "" || *traceJSON != "" {
		lg = trace.New()
		sinks = append(sinks, lg)
	}
	var reg *obs.Registry
	if *serve != "" {
		reg = obs.NewRegistry()
		sinks = append(sinks, obs.NewMetrics(reg, cfg.HV.Board.Slots))
	}
	var stream *obs.JSONL
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			return err
		}
		stream = obs.NewJSONL(f)
		sinks = append(sinks, stream)
	}
	cfg.HV.Observer = obs.Tee(sinks...)

	if *serve != "" {
		go func() {
			if err := http.ListenAndServe(*serve, reg.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	pol, err := experiments.NewPolicy(*algo, cfg.HV.Board)
	if err != nil {
		return usageError{err}
	}
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg.HV, pol)
	if err != nil {
		return err
	}
	for _, ev := range seq {
		if err := h.Submit(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
			return err
		}
	}
	results, err := h.Run()
	if err != nil {
		return err
	}

	t := &report.Table{
		Title:  fmt.Sprintf("%s: %d events", pol.Name(), len(results)),
		Header: []string{"#", "App", "Batch", "Prio", "Arrival", "Response", "Wait", "Run", "PR", "Preempts"},
	}
	for _, r := range results {
		t.AddRow(r.AppID, r.App, r.Batch, r.Priority,
			report.FormatSeconds(r.Arrival.Seconds()),
			report.FormatSeconds(r.Response.Seconds()),
			report.FormatSeconds(r.Wait.Seconds()),
			report.FormatSeconds(r.Run.Seconds()),
			report.FormatSeconds(r.Reconfig.Seconds()),
			r.Preemptions)
	}
	if *csv {
		fmt.Fprint(w, t.CSV())
	} else {
		fmt.Fprint(w, t.Render())
	}

	resp := metrics.Responses(results)
	fmt.Fprintf(w, "\nresponse: mean=%.2fs median=%.2fs p95=%.2fs p99=%.2fs\n",
		metrics.Mean(resp), metrics.Median(resp),
		metrics.Percentile(resp, 95), metrics.Percentile(resp, 99))
	preempts := 0
	for _, r := range results {
		preempts += r.Preemptions
	}
	st := h.Board().Stats()
	fmt.Fprintf(w, "board: %d reconfigurations (%.1fs on the CAP), %d faults, %d preemptions\n",
		st.Reconfigurations, st.ReconfigTime.Seconds(), st.Faults, preempts)

	if *gantt {
		fmt.Fprintln(w)
		fmt.Fprint(w, lg.Gantt(h.Board().NumSlots(), lg.End(), 100))
	}
	if *dump {
		fmt.Fprintln(w)
		fmt.Fprint(w, lg.Dump())
	}
	if *summary {
		fmt.Fprintln(w)
		fmt.Fprint(w, lg.SummaryTable())
	}
	if *ganttSVG != "" {
		svg, err := ganttFromTrace(lg, h.Board().NumSlots())
		if err != nil {
			return err
		}
		if err := os.WriteFile(*ganttSVG, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *ganttSVG)
	}
	if *traceJSON != "" {
		data, err := lg.MarshalJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceJSON, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *traceJSON)
	}
	if stream != nil {
		if err := stream.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *jsonl)
	}
	if *serve != "" {
		fmt.Fprintf(w, "serving metrics on %s (/metrics, /metrics.json); Ctrl-C to exit\n", *serve)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
	return nil
}

// ganttFromTrace converts the execution trace into an SVG timeline:
// reconfiguration windows in grey, per-application compute in colour.
func ganttFromTrace(lg *trace.Log, slots int) (string, error) {
	g := svgchart.Gantt{Title: "slot occupancy", Rows: slots, End: lg.End().Seconds()}
	for _, iv := range lg.Intervals() {
		g.Spans = append(g.Spans, svgchart.Span{Row: iv.Slot, From: iv.From.Seconds(), To: iv.To.Seconds(), Kind: iv.Kind, Label: iv.App})
	}
	return g.SVG(1000)
}

// compareAll replays the sequence under every algorithm and prints the
// summary statistics side by side.
func compareAll(w io.Writer, seq workload.Sequence) error {
	cfg := experiments.DefaultConfig()
	t := &report.Table{
		Title:  fmt.Sprintf("all algorithms: %d events", len(seq)),
		Header: []string{"Algorithm", "Mean", "Median", "p95", "p99", "Preempts"},
	}
	for _, name := range experiments.PolicyNames {
		results, err := experiments.RunSequence(cfg, name, seq)
		if err != nil {
			return err
		}
		resp := metrics.Responses(results)
		preempts := 0
		for _, r := range results {
			preempts += r.Preemptions
		}
		t.AddRow(name,
			report.FormatSeconds(metrics.Mean(resp)),
			report.FormatSeconds(metrics.Median(resp)),
			report.FormatSeconds(metrics.Percentile(resp, 95)),
			report.FormatSeconds(metrics.Percentile(resp, 99)),
			preempts)
	}
	fmt.Fprint(w, t.Render())
	return nil
}

func loadOrGenerate(path, scenario string, events int, seed int64, batch int) (workload.Sequence, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		seqs, err := workload.ParseJSON(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return seqs[0], nil
	}
	var sc workload.Scenario
	switch scenario {
	case "standard":
		sc = workload.Standard
	case "stress":
		sc = workload.Stress
	case "real-time", "realtime":
		sc = workload.RealTime
	default:
		return nil, fmt.Errorf("unknown scenario %q", scenario)
	}
	seq := workload.Generate(workload.Spec{Scenario: sc, Events: events, FixedBatch: batch}, seed)
	return seq, seq.Validate()
}
