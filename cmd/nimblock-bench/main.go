// Command nimblock-bench is the benchmark-regression harness: it runs the
// key experiment drivers N times under controlled timing, both through the
// serial reference path (one worker) and the parallel runner, and emits
// BENCH_<rev>.json with ns/op, allocs/op, bytes/op, simulator events/sec,
// and the parallel speedup. Commit the file to record the performance
// trajectory of the repository; compare two files to spot a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nimblock/internal/experiments"
	"nimblock/internal/workload"
)

// Sample is one measured benchmark.
type Sample struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	Iters        int     `json:"iters"`
	Rounds       int     `json:"rounds"`
}

// Report is the BENCH_<rev>.json payload.
type Report struct {
	Rev        string             `json:"rev"`
	Generated  string             `json:"generated"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPUs       int                `json:"cpus"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Scale      string             `json:"scale"`
	Benchmarks []Sample           `json:"benchmarks"`
	Speedup    map[string]float64 `json:"speedup_vs_serial"`
}

func main() {
	var (
		rev       = flag.String("rev", "", "revision label for the output file (default: git short hash, else \"dev\")")
		outDir    = flag.String("out", ".", "directory for BENCH_<rev>.json")
		rounds    = flag.Int("rounds", 3, "measurement rounds per benchmark; the fastest round is reported")
		benchtime = flag.Duration("benchtime", time.Second, "minimum measuring time per round")
		full      = flag.Bool("full", false, "paper-scale stimulus instead of quick scale")
		baseline  = flag.String("baseline", "", "committed BENCH_<rev>.json to gate against: exit 1 if any shared benchmark regresses more than -tolerance in ns/op, allocs/op, or bytes/op")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional regression against -baseline")
	)
	flag.Parse()

	if *rev == "" {
		*rev = gitRev()
	}
	cfg := experiments.QuickConfig()
	scale := "quick"
	if *full {
		cfg = experiments.DefaultConfig()
		scale = "full"
	}
	serial := cfg
	serial.Workers = 1
	parallel := cfg
	parallel.Workers = 0 // NIMBLOCK_PARALLEL or GOMAXPROCS

	report := &Report{
		Rev:        *rev,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Speedup:    map[string]float64{},
	}

	type pair struct {
		name string
		fn   func(experiments.Config) error
	}
	// Each driver is measured twice: once serial, once parallel. These are
	// the hottest figure/sweep pipelines (BenchmarkFig5-7 share the
	// scenario stimulus measured by Scenarios).
	pairs := []pair{
		{"Scenarios", runScenarios},
		{"Fig5", runFig5},
		{"Ablation", runAblation},
		{"ScaleOut", runScaleOut},
		{"Fleet", runFleet},
	}
	byName := map[string]Sample{}
	record := func(s Sample) {
		report.Benchmarks = append(report.Benchmarks, s)
		byName[s.Name] = s
		fmt.Fprintf(os.Stderr, "%-24s %14.0f ns/op %12.0f allocs/op %11.0f events/sec (%d iters x %d rounds)\n",
			s.Name, s.NsPerOp, s.AllocsPerOp, s.EventsPerSec, s.Iters, s.Rounds)
	}
	for _, p := range pairs {
		record(measure(p.name+"Serial", *rounds, *benchtime, func() {
			fail(p.fn(serial))
		}))
		record(measure(p.name+"Parallel", *rounds, *benchtime, func() {
			fail(p.fn(parallel))
		}))
		report.Speedup[p.name] = byName[p.name+"Serial"].NsPerOp / byName[p.name+"Parallel"].NsPerOp
	}
	// Raw single-sequence scheduling cost per policy (serial by nature).
	seq := workload.Generate(workload.Spec{Scenario: workload.Stress, Events: cfg.Events}, cfg.Seed)
	for _, pol := range experiments.PolicyNames {
		record(measure("Scheduler/"+pol, *rounds, *benchtime, func() {
			_, err := experiments.RunSequence(serial, pol, seq)
			fail(err)
		}))
	}

	path := filepath.Join(*outDir, fmt.Sprintf("BENCH_%s.json", *rev))
	buf, err := json.MarshalIndent(report, "", "  ")
	fail(err)
	buf = append(buf, '\n')
	fail(os.WriteFile(path, buf, 0o644))
	fmt.Println(path)

	if *baseline != "" {
		fail(gate(os.Stderr, *baseline, byName, report.GOMAXPROCS, *tolerance))
	}
}

// gate compares the run against a committed baseline report: every
// benchmark present in both must stay within tolerance on ns/op,
// allocs/op, and bytes/op. Timing gates are noisy on shared CI runners,
// so the tolerance is generous (15%); allocs/op and bytes/op — which
// are deterministic — carry the same bound. Benchmarks only one side
// knows are skipped, so adding or retiring a benchmark does not break
// the gate. When the baseline was recorded at a different GOMAXPROCS
// than this run (procs), the verdict says so: the parallel rows of the
// two are not comparable. A passing verdict is written to w.
func gate(w io.Writer, path string, got map[string]Sample, procs int, tolerance float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var failures []string
	compared := 0
	for _, b := range base.Benchmarks {
		s, ok := got[b.Name]
		if !ok {
			continue
		}
		compared++
		check := func(metric string, base, now float64) {
			if base <= 0 {
				return
			}
			if grew := now/base - 1; grew > tolerance {
				failures = append(failures, fmt.Sprintf("%s: %s regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
					b.Name, metric, 100*grew, base, now, 100*tolerance))
			}
		}
		check("ns/op", b.NsPerOp, s.NsPerOp)
		check("allocs/op", b.AllocsPerOp, s.AllocsPerOp)
		check("bytes/op", b.BytesPerOp, s.BytesPerOp)
	}
	if compared == 0 {
		return fmt.Errorf("bench gate: no benchmark shared with %s", path)
	}
	procsNote := ""
	if base.GOMAXPROCS != procs {
		procsNote = fmt.Sprintf(" (baseline at gomaxprocs %d, this run at %d)", base.GOMAXPROCS, procs)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench gate vs %s%s:\n  %s", path, procsNote, strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "bench gate: %d benchmarks within %.0f%% of %s%s\n", compared, 100*tolerance, path, procsNote)
	return nil
}

// measure times fn until benchtime elapses (at least one iteration),
// repeats for the given number of rounds, and keeps the fastest round —
// the standard defense against scheduler noise. Simulator events fired
// during the fastest round (experiments.EventsFired deltas) become the
// sample's events/op and events/sec.
func measure(name string, rounds int, benchtime time.Duration, fn func()) Sample {
	fn() // warm caches (saturation analysis, graph memos) out of band
	best := Sample{Name: name, Rounds: rounds}
	for r := 0; r < rounds; r++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ev0 := experiments.EventsFired()
		iters := 0
		start := time.Now()
		for time.Since(start) < benchtime || iters == 0 {
			fn()
			iters++
		}
		elapsed := time.Since(start)
		events := experiments.EventsFired() - ev0
		runtime.ReadMemStats(&ms1)
		nsPerOp := float64(elapsed.Nanoseconds()) / float64(iters)
		if best.Iters == 0 || nsPerOp < best.NsPerOp {
			best.NsPerOp = nsPerOp
			best.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
			best.BytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters)
			best.EventsPerOp = float64(events) / float64(iters)
			best.EventsPerSec = float64(events) / elapsed.Seconds()
			best.Iters = iters
		}
	}
	return best
}

func runScenarios(cfg experiments.Config) error {
	for _, sc := range workload.Scenarios() {
		if _, err := experiments.RunScenario(cfg, sc, experiments.PolicyNames); err != nil {
			return err
		}
	}
	return nil
}

func runFig5(cfg experiments.Config) error {
	data := map[workload.Scenario]*experiments.ScenarioData{}
	for _, sc := range workload.Scenarios() {
		d, err := experiments.RunScenario(cfg, sc, experiments.PolicyNames)
		if err != nil {
			return err
		}
		data[sc] = d
	}
	_, err := experiments.Fig5(data)
	return err
}

func runAblation(cfg experiments.Config) error {
	_, err := experiments.RunAblation(cfg)
	return err
}

func runScaleOut(cfg experiments.Config) error {
	_, err := experiments.ScaleOut(cfg)
	return err
}

func runFleet(cfg experiments.Config) error {
	_, err := experiments.Fleet(cfg, nil)
	return err
}

// gitRev resolves the short hash of HEAD, falling back to "dev" outside a
// git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
