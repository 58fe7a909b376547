// Command nimblock-events generates randomized test-event sequences, the
// counterpart of the Python generation scripts in the paper's artifact.
// Each event is an application arrival with a batch size, priority level,
// and arrival time; output is JSON consumable by nimblock-sim.
//
// With -spans it instead folds a recorded execution trace (written by
// nimblock-sim -trace-json) into per-application span timelines:
// submit / first-config / first-launch / complete milestones plus every
// reconfiguration, compute, preemption, and recovery segment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"nimblock/internal/obs"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
	"nimblock/internal/workload"
)

func main() {
	var (
		scenario = flag.String("scenario", "stress", "congestion scenario: standard, stress, real-time")
		events   = flag.Int("events", workload.EventsPerSequence, "events per sequence")
		seqs     = flag.Int("sequences", 1, "number of sequences to generate")
		seed     = flag.Int64("seed", 1, "random seed")
		batch    = flag.Int("batch", 0, "fixed batch size (0 = random up to 30)")
		prio     = flag.Int("priority", 0, "fixed priority 1/3/9 (0 = random)")
		gapMS    = flag.Float64("gap-ms", 0, "fixed inter-arrival gap in ms (0 = scenario default)")
		spans    = flag.String("spans", "", "fold this trace JSON (from nimblock-sim -trace-json) into span timelines instead of generating events")
	)
	flag.Parse()

	if *spans != "" {
		if err := foldSpans(*spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var sc workload.Scenario
	switch *scenario {
	case "standard":
		sc = workload.Standard
	case "stress":
		sc = workload.Stress
	case "real-time", "realtime":
		sc = workload.RealTime
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	spec := workload.Spec{
		Scenario:      sc,
		Events:        *events,
		FixedBatch:    *batch,
		FixedPriority: *prio,
		FixedGap:      sim.Milliseconds(*gapMS),
	}
	var out []workload.Sequence
	for i := 0; i < *seqs; i++ {
		seq := workload.Generate(spec, *seed+int64(i)*1_000_003)
		if err := seq.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out = append(out, seq)
	}
	data, err := workload.MarshalJSON(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// foldSpans reads a recorded trace and emits the span timeline as JSON.
func foldSpans(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lg, err := trace.ParseJSON(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	spans := obs.NewSpanBuilder()
	lg.Replay(spans)
	out, err := json.MarshalIndent(spans.Spans(), "", "  ")
	if err != nil {
		return err
	}
	os.Stdout.Write(out)
	fmt.Println()
	return nil
}
