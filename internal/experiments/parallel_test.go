package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"nimblock/internal/workload"
)

func TestPoolPreservesInputOrder(t *testing.T) {
	jobs := make([]func(context.Context) (int, error), 50)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // scramble completion order
			}
			return i * i, nil
		}
	}
	for _, workers := range []int{1, 4, 64} {
		got, err := runJobs(workers, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestPoolPropagatesLowestIndexError(t *testing.T) {
	jobs := make([]func(context.Context) (int, error), 20)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) {
			return 0, fmt.Errorf("job %d failed", i)
		}
	}
	for _, workers := range []int{1, 4} {
		_, err := runJobs(workers, jobs)
		if err == nil {
			t.Fatalf("workers=%d: no error propagated", workers)
		}
		// Job 0 is claimed first and always runs; among all observed
		// failures the lowest index wins, so the error is deterministic.
		if got := err.Error(); got != "job 0 failed" {
			t.Fatalf("workers=%d: got error %q, want job 0's", workers, got)
		}
	}
}

func TestPoolCancelsStragglers(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int64
	jobs := make([]func(context.Context) (int, error), 200)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) {
			executed.Add(1)
			if i == 0 {
				return 0, boom
			}
			time.Sleep(time.Millisecond)
			return i, nil
		}
	}
	if _, err := runJobs(2, jobs); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if n := executed.Load(); n >= 200 {
		t.Fatalf("all %d jobs executed despite early failure", n)
	}
	// The serial path must stop exactly at the failing job.
	executed.Store(0)
	if _, err := runJobs(1, jobs); !errors.Is(err, boom) {
		t.Fatalf("serial: got %v, want boom", err)
	}
	if n := executed.Load(); n != 1 {
		t.Fatalf("serial path executed %d jobs after failure, want 1", n)
	}
}

func TestConfigWorkersResolution(t *testing.T) {
	c := quick()
	c.Workers = 3
	if got := c.workers(); got != 3 {
		t.Fatalf("explicit Workers: got %d, want 3", got)
	}
	c.Workers = 0
	t.Setenv(EnvParallel, "5")
	if got := c.workers(); got != 5 {
		t.Fatalf("env override: got %d, want 5", got)
	}
	t.Setenv(EnvParallel, "bogus")
	if got := c.workers(); got < 1 {
		t.Fatalf("fallback: got %d, want >= 1", got)
	}
}

// The headline determinism guarantee: every sweep's result is
// deep-equal between the serial reference (one worker) and the parallel
// runner, and the figures rendered from the scenario data are
// byte-identical.
func TestParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		// costly cases are skipped in -short mode.
		costly bool
		run    func(Config) (any, error)
	}{
		{name: "scenarios", run: runScenariosAndFigures},
		{name: "ablation", run: func(c Config) (any, error) { return RunAblation(c) }},
		{name: "scaleout", run: func(c Config) (any, error) { return ScaleOut(c) }},
		{name: "chaos", costly: true, run: func(c Config) (any, error) { return Chaos(c) }},
		{name: "checkpoint", costly: true, run: func(c Config) (any, error) { return CheckpointAblation(c) }},
		{name: "failover", run: func(c Config) (any, error) { return Failover(c) }},
		{name: "hetero", run: func(c Config) (any, error) { return Hetero(c) }},
		{name: "overload", run: func(c Config) (any, error) { return Overload(c, nil) }},
		{name: "utilization", run: func(c Config) (any, error) { return UtilizationStudy(c) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.costly && testing.Short() {
				t.Skip("costly sweep; skipped in -short mode")
			}
			serialCfg := quick()
			serialCfg.Workers = 1
			parallelCfg := quick()
			parallelCfg.Workers = 8
			s, err := tc.run(serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := tc.run(parallelCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s, p) {
				t.Fatalf("results diverge between serial and parallel:\nserial   %+v\nparallel %+v", s, p)
			}
		})
	}
}

// scenarioFigures is every congestion scenario's data with the figures
// rendered from it.
type scenarioFigures struct {
	data    map[workload.Scenario]*ScenarioData
	figures string
}

func runScenariosAndFigures(cfg Config) (any, error) {
	out := scenarioFigures{data: map[workload.Scenario]*ScenarioData{}}
	for _, sc := range workload.Scenarios() {
		d, err := RunScenario(cfg, sc, PolicyNames)
		if err != nil {
			return nil, err
		}
		out.data[sc] = d
	}
	f5, err := Fig5(out.data)
	if err != nil {
		return nil, err
	}
	f6, err := Fig6(out.data)
	if err != nil {
		return nil, err
	}
	f7, err := Fig7(out.data)
	if err != nil {
		return nil, err
	}
	f8, err := Fig8(out.data[workload.Standard])
	if err != nil {
		return nil, err
	}
	out.figures = f5.Render() + f6.Render() + f7.Render() + f8.Render()
	return out, nil
}

// A failing run surfaces the error through the pool rather than hanging
// or panicking workers.
func TestParallelPropagatesRunError(t *testing.T) {
	cfg := quick()
	cfg.Workers = 4
	cfg.HV.Board.Slots = 0 // invalid board: hv.New fails inside every job
	if _, err := RunScenario(cfg, workload.Stress, PolicyNames); err == nil {
		t.Fatal("invalid board accepted by parallel runner")
	}
}
