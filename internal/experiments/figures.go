package experiments

import (
	"fmt"
	"sort"

	"nimblock/internal/apps"
	"nimblock/internal/hv"
	"nimblock/internal/metrics"
	"nimblock/internal/report"
	"nimblock/internal/workload"
)

// Fig5Result holds average response-time reductions normalized to the
// baseline (Figure 5). Following Section 5.2 ("we analyze the data using
// the average of the response times of the evaluated events"), each
// sequence contributes the ratio of its mean baseline response to its
// mean algorithm response; sequences are then averaged. Mean-of-ratios
// would let one short application behind a 1000-second queue dominate
// the figure.
type Fig5Result struct {
	// Reduction maps scenario -> policy -> mean reduction factor.
	Reduction map[workload.Scenario]map[string]float64
	// CI maps scenario -> policy -> bootstrap 95% confidence interval
	// over the per-sequence reduction factors.
	CI map[workload.Scenario]map[string]metrics.CI
}

// Fig5 runs (or reuses) the three congestion scenarios and computes the
// average relative response-time reduction of each sharing algorithm.
func Fig5(data map[workload.Scenario]*ScenarioData) (*Fig5Result, error) {
	out := &Fig5Result{
		Reduction: map[workload.Scenario]map[string]float64{},
		CI:        map[workload.Scenario]map[string]metrics.CI{},
	}
	for _, sc := range workload.Scenarios() {
		d, ok := data[sc]
		if !ok {
			return nil, fmt.Errorf("fig5: missing scenario %v", sc)
		}
		out.Reduction[sc] = map[string]float64{}
		out.CI[sc] = map[string]metrics.CI{}
		for _, pol := range SharingPolicyNames {
			var perSeq []float64
			for si := range d.PerSequence[pol] {
				base := meanResponse(d.PerSequence["Baseline"][si])
				algo := meanResponse(d.PerSequence[pol][si])
				if base <= 0 || algo <= 0 {
					return nil, fmt.Errorf("fig5: empty sequence %d for %s", si, pol)
				}
				perSeq = append(perSeq, base/algo)
			}
			out.Reduction[sc][pol] = metrics.Mean(perSeq)
			ci, err := metrics.BootstrapMeanCI(perSeq, 1000, 0.95, 7)
			if err != nil {
				return nil, err
			}
			out.CI[sc][pol] = ci
		}
	}
	return out, nil
}

// Render prints Figure 5's bars as a table.
func (r *Fig5Result) Render() string {
	t := &report.Table{
		Title:  "Figure 5: Avg relative response-time reduction vs baseline (higher is better)",
		Header: append([]string{"Scenario"}, SharingPolicyNames...),
	}
	for _, sc := range workload.Scenarios() {
		row := []any{sc.String()}
		for _, pol := range SharingPolicyNames {
			ci := r.CI[sc][pol]
			row = append(row, fmt.Sprintf("%s [%.2f, %.2f]",
				report.FormatFactor(r.Reduction[sc][pol]), ci.Lo, ci.Hi))
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// Fig6Result holds tail response times normalized to the baseline
// (Figure 6): the 95th/99th percentile of per-event normalized response
// (algorithm/baseline; lower is better).
type Fig6Result struct {
	// Tail maps scenario -> policy -> [p95, p99] normalized response.
	Tail map[workload.Scenario]map[string][2]float64
}

// Fig6 computes tail response statistics from the shared scenario data.
func Fig6(data map[workload.Scenario]*ScenarioData) (*Fig6Result, error) {
	out := &Fig6Result{Tail: map[workload.Scenario]map[string][2]float64{}}
	for _, sc := range workload.Scenarios() {
		d, ok := data[sc]
		if !ok {
			return nil, fmt.Errorf("fig6: missing scenario %v", sc)
		}
		out.Tail[sc] = map[string][2]float64{}
		for _, pol := range SharingPolicyNames {
			var all []float64
			for si := range d.PerSequence[pol] {
				norm, err := metrics.NormalizedResponses(d.PerSequence["Baseline"][si], d.PerSequence[pol][si])
				if err != nil {
					return nil, err
				}
				all = append(all, norm...)
			}
			out.Tail[sc][pol] = [2]float64{
				metrics.Percentile(all, 95),
				metrics.Percentile(all, 99),
			}
		}
	}
	return out, nil
}

// Render prints Figure 6's bars as a table.
func (r *Fig6Result) Render() string {
	t := &report.Table{
		Title:  "Figure 6: Tail response time normalized to baseline (lower is better)",
		Header: append([]string{"Scenario-pctile"}, SharingPolicyNames...),
	}
	for _, sc := range workload.Scenarios() {
		for pi, pct := range []string{"95", "99"} {
			row := []any{fmt.Sprintf("%s-%s", sc, pct)}
			for _, pol := range SharingPolicyNames {
				row = append(row, report.FormatFloat(r.Tail[sc][pol][pi]))
			}
			t.AddRow(row...)
		}
	}
	return t.Render()
}

// Fig7Result holds the deadline failure sweeps (Figure 7a/b/c).
type Fig7Result struct {
	// Points maps scenario -> policy -> sweep over Ds.
	Points map[workload.Scenario]map[string][]metrics.DeadlinePoint
	// ErrorPoint10 maps scenario -> policy -> the 10% error point Ds
	// (-1 if never reached).
	ErrorPoint10 map[workload.Scenario]map[string]float64
}

// Fig7 sweeps deadline scaling factors for high-priority applications.
func Fig7(data map[workload.Scenario]*ScenarioData) (*Fig7Result, error) {
	spec := metrics.DefaultDeadlineSpec()
	out := &Fig7Result{
		Points:       map[workload.Scenario]map[string][]metrics.DeadlinePoint{},
		ErrorPoint10: map[workload.Scenario]map[string]float64{},
	}
	for _, sc := range workload.Scenarios() {
		d, ok := data[sc]
		if !ok {
			return nil, fmt.Errorf("fig7: missing scenario %v", sc)
		}
		out.Points[sc] = map[string][]metrics.DeadlinePoint{}
		out.ErrorPoint10[sc] = map[string]float64{}
		for _, pol := range PolicyNames {
			pts, err := metrics.DeadlineSweep(d.Results[pol], d.SingleSlot, spec)
			if err != nil {
				return nil, err
			}
			out.Points[sc][pol] = pts
			out.ErrorPoint10[sc][pol] = metrics.ErrorPoint(pts, 0.10)
		}
	}
	return out, nil
}

// Render prints each scenario's sweep as series plus the error points.
func (r *Fig7Result) Render() string {
	var out string
	for _, sc := range workload.Scenarios() {
		var series []report.Series
		for _, pol := range PolicyNames {
			pts := r.Points[sc][pol]
			s := report.Series{Name: pol}
			for _, p := range pts {
				s.X = append(s.X, p.Ds)
				s.Y = append(s.Y, p.ViolationRate)
			}
			series = append(series, s)
		}
		out += report.RenderSeries(fmt.Sprintf("Figure 7 (%s): deadline failure rate vs Ds (high priority)", sc), "Ds", series)
		t := &report.Table{Header: append([]string{"10% error point"}, PolicyNames...)}
		row := []any{sc.String()}
		for _, pol := range PolicyNames {
			ep := r.ErrorPoint10[sc][pol]
			if ep < 0 {
				row = append(row, ">20")
			} else {
				row = append(row, report.FormatFloat(ep))
			}
		}
		t.AddRow(row...)
		out += t.Render() + "\n"
	}
	return out
}

// Fig8Result holds the time breakdown under Nimblock (Figure 8): run,
// partial reconfiguration, and wait time as proportions of their sum.
type Fig8Result struct {
	// Share maps benchmark -> [run, reconfig, wait] fractions (sum 1).
	Share map[string][3]float64
}

// Fig8 computes the proportion breakdown from the standard-scenario
// Nimblock results.
func Fig8(data *ScenarioData) (*Fig8Result, error) {
	rs, ok := data.Results["Nimblock"]
	if !ok {
		return nil, fmt.Errorf("fig8: scenario data lacks Nimblock results")
	}
	out := &Fig8Result{Share: map[string][3]float64{}}
	sums := map[string][3]float64{}
	for _, r := range rs {
		s := sums[r.App]
		s[0] += r.Run.Seconds()
		s[1] += r.Reconfig.Seconds()
		s[2] += r.Wait.Seconds()
		sums[r.App] = s
	}
	for app, s := range sums {
		total := s[0] + s[1] + s[2]
		if total <= 0 {
			continue
		}
		out.Share[app] = [3]float64{s[0] / total, s[1] / total, s[2] / total}
	}
	return out, nil
}

// Render prints Figure 8's stacked bars as a table.
func (r *Fig8Result) Render() string {
	t := &report.Table{
		Title:  "Figure 8: Run / PR / Wait time as proportion of total (Nimblock, standard)",
		Header: []string{"Benchmark", "Run", "PR", "Wait"},
	}
	names := make([]string, 0, len(r.Share))
	for n := range r.Share {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Share[n]
		t.AddRow(n, report.FormatPercent(s[0]), report.FormatPercent(s[1]), report.FormatPercent(s[2]))
	}
	return t.Render()
}

// AblationBatchSizes are the fixed batch sizes swept in Figures 9-11.
var AblationBatchSizes = []int{1, 3, 5, 7, 10}

// AblationData holds stress-test runs with fixed batch sizes for the four
// Nimblock variants (Section 5.6).
type AblationData struct {
	// PerBatch maps batch size -> variant -> pooled results.
	PerBatch map[int]map[string][]hv.Result
}

// RunAblation executes the ablation stimulus: stress-test arrival gaps,
// random benchmarks and priorities, fixed batch size per run. All batch
// sizes are submitted to the worker pool together, so every (batch,
// sequence, variant) simulation runs in parallel.
func RunAblation(cfg Config) (*AblationData, error) {
	runs := make([]specRun, 0, len(AblationBatchSizes))
	for _, batch := range AblationBatchSizes {
		spec := workload.Spec{Scenario: workload.Stress, Events: cfg.Events, FixedBatch: batch}
		runs = append(runs, specRun{cfg: cfg, spec: spec, scenario: workload.Stress})
	}
	datas, err := runSpecs(AblationNames, runs)
	if err != nil {
		return nil, err
	}
	out := &AblationData{PerBatch: map[int]map[string][]hv.Result{}}
	for i, batch := range AblationBatchSizes {
		out.PerBatch[batch] = datas[i].Results
	}
	return out, nil
}

// Fig9Result holds relative response times normalized to full Nimblock
// (Figure 9): mean response(variant)/mean response(Nimblock) per batch.
type Fig9Result struct {
	// Relative maps batch -> variant -> normalized mean response.
	Relative map[int]map[string]float64
}

// Fig9 computes the ablation normalization.
func Fig9(data *AblationData) (*Fig9Result, error) {
	out := &Fig9Result{Relative: map[int]map[string]float64{}}
	for batch, byPol := range data.PerBatch {
		base := meanResponse(byPol["Nimblock"])
		if base <= 0 {
			return nil, fmt.Errorf("fig9: no Nimblock results for batch %d", batch)
		}
		out.Relative[batch] = map[string]float64{}
		for _, pol := range AblationNames {
			out.Relative[batch][pol] = meanResponse(byPol[pol]) / base
		}
	}
	return out, nil
}

// Render prints Figure 9.
func (r *Fig9Result) Render() string {
	t := &report.Table{
		Title:  "Figure 9: Relative response time, stress test, normalized to Nimblock (lower is better)",
		Header: append([]string{"Batch"}, AblationNames...),
	}
	for _, b := range AblationBatchSizes {
		row := []any{fmt.Sprintf("%d", b)}
		for _, pol := range AblationNames {
			row = append(row, report.FormatFloat(r.Relative[b][pol]))
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// Fig10Result holds AlexNet response times under different batch sizes
// and ablation variants (Figure 10), in seconds.
type Fig10Result struct {
	Response map[int]map[string]float64
}

// Fig10 extracts AlexNet events from the ablation runs.
func Fig10(data *AblationData) (*Fig10Result, error) {
	out := &Fig10Result{Response: map[int]map[string]float64{}}
	for batch, byPol := range data.PerBatch {
		out.Response[batch] = map[string]float64{}
		for _, pol := range AblationNames {
			an := metrics.ByApp(byPol[pol])[apps.AlexNet]
			if len(an) == 0 {
				continue
			}
			out.Response[batch][pol] = meanResponse(an)
		}
	}
	return out, nil
}

// Render prints Figure 10.
func (r *Fig10Result) Render() string {
	t := &report.Table{
		Title:  "Figure 10: AlexNet response time (s) under different batch sizes",
		Header: append([]string{"Batch"}, AblationNames...),
	}
	for _, b := range AblationBatchSizes {
		row := []any{fmt.Sprintf("%d", b)}
		for _, pol := range AblationNames {
			if v, ok := r.Response[b][pol]; ok {
				row = append(row, report.FormatSeconds(v))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// Fig11Result holds AlexNet throughput (items/s) per batch and variant
// (Figure 11).
type Fig11Result struct {
	Throughput map[int]map[string]float64
}

// Fig11 computes AlexNet throughput from the ablation runs.
func Fig11(data *AblationData) (*Fig11Result, error) {
	out := &Fig11Result{Throughput: map[int]map[string]float64{}}
	for batch, byPol := range data.PerBatch {
		out.Throughput[batch] = map[string]float64{}
		for _, pol := range AblationNames {
			an := metrics.ByApp(byPol[pol])[apps.AlexNet]
			if len(an) == 0 {
				continue
			}
			var tp []float64
			for _, r := range an {
				tp = append(tp, r.Throughput())
			}
			out.Throughput[batch][pol] = metrics.Mean(tp)
		}
	}
	return out, nil
}

// Render prints Figure 11.
func (r *Fig11Result) Render() string {
	t := &report.Table{
		Title:  "Figure 11: AlexNet throughput (items/s) under different batch sizes",
		Header: append([]string{"Batch"}, AblationNames...),
	}
	for _, b := range AblationBatchSizes {
		row := []any{fmt.Sprintf("%d", b)}
		for _, pol := range AblationNames {
			if v, ok := r.Throughput[b][pol]; ok {
				row = append(row, report.FormatFloat(v))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t.Render()
}
