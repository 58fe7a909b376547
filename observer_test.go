package nimblock_test

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"nimblock"
)

// countingObserver tallies events by kind; shared across boards in the
// cluster test, so it locks.
type countingObserver struct {
	mu    sync.Mutex
	kinds map[string]int
}

func (c *countingObserver) Observe(e nimblock.TraceEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kinds == nil {
		c.kinds = map[string]int{}
	}
	c.kinds[e.Kind]++
}

func (c *countingObserver) count(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kinds[kind]
}

func TestSystemObserverSeesLifecycle(t *testing.T) {
	o := &countingObserver{}
	cfg := nimblock.DefaultConfig()
	cfg.Observer = o
	sys, err := nimblock.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := nimblock.Benchmark(nimblock.LeNet)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(app, 3, nimblock.PriorityMedium, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if o.count("arrival") != 1 || o.count("retire") != 1 {
		t.Fatalf("lifecycle events wrong: %v", o.kinds)
	}
	if o.count("item-start") == 0 || o.count("reconfig-done") == 0 {
		t.Fatalf("execution events missing: %v", o.kinds)
	}
	// Tracing was off: the live stream is independent of the stored log.
	if sys.TraceDump() != "" {
		t.Fatal("trace log populated without EnableTrace")
	}
}

func TestObserverFuncAndClusterFanIn(t *testing.T) {
	var mu sync.Mutex
	events := 0
	ccfg := nimblock.DefaultClusterConfig()
	ccfg.Observer = nimblock.ObserverFunc(func(e nimblock.TraceEvent) {
		mu.Lock()
		events++
		mu.Unlock()
		if e.At < 0 {
			t.Errorf("negative event time %v", e.At)
		}
	})
	cl, err := nimblock.NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := nimblock.Benchmark(nimblock.AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := cl.Submit(app, 2, nimblock.PriorityLow, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("cluster observer saw nothing")
	}
}

// TestTraceLogMatchesObserver checks that a System with both EnableTrace
// and an Observer records in its log exactly the events its observer
// sees, one for one and in order, for the configurations the examples
// trace: preemption under contention (multitenant), injected faults with
// watchdog and quarantine (chaos), checkpointing under slow faults
// (checkpoint), and the checkpointing policy.
func TestTraceLogMatchesObserver(t *testing.T) {
	cases := []struct {
		name string
		set  func(*nimblock.Config)
	}{
		{"Nimblock", func(*nimblock.Config) {}},
		{"Nimblock/faults", func(c *nimblock.Config) {
			c.FaultPlan = "seed 7\ndead slot=9 at=1s\ncrc slot=3 prob=0.9\nhang app=LeNet task=0 prob=1 until=500ms\n"
			c.WatchdogFactor = 3
			c.QuarantineThreshold = 5
		}},
		{"Nimblock/checkpoint", func(c *nimblock.Config) {
			c.FaultPlan = "seed 7\nslow prob=0.6 factor=4 until=120s\n"
			c.WatchdogFactor = 2
			c.Checkpoint = nimblock.CheckpointConfig{Enabled: true, Period: 50 * time.Millisecond}
		}},
		{"NimblockCheckpoint", func(c *nimblock.Config) {
			c.Algorithm = nimblock.AlgoNimblockCheckpoint
			c.Checkpoint = nimblock.CheckpointConfig{Enabled: true}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var seen []nimblock.TraceEvent
			cfg := nimblock.DefaultConfig()
			tc.set(&cfg)
			cfg.EnableTrace = true
			cfg.Observer = nimblock.ObserverFunc(func(e nimblock.TraceEvent) { seen = append(seen, e) })
			sys, err := nimblock.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hog, _ := nimblock.Benchmark(nimblock.OpticalFlow)
			if err := sys.Submit(hog, 12, nimblock.PriorityLow, 0); err != nil {
				t.Fatal(err)
			}
			for i, name := range []string{nimblock.LeNet, nimblock.LeNet, nimblock.Rendering3D, nimblock.ImageCompression} {
				app, _ := nimblock.Benchmark(name)
				at := 100 * time.Millisecond
				if i > 0 {
					at = 2*time.Second + time.Duration(i)*100*time.Millisecond
				}
				if err := sys.Submit(app, 5, nimblock.PriorityHigh, at); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			data, err := sys.TraceJSON()
			if err != nil {
				t.Fatal(err)
			}
			var logged []struct {
				At    int64  `json:"at_us"`
				Kind  string `json:"kind"`
				App   string `json:"app"`
				AppID int64  `json:"app_id"`
				Task  int    `json:"task"`
				Slot  int    `json:"slot"`
				Item  int    `json:"item"`
			}
			if err := json.Unmarshal(data, &logged); err != nil {
				t.Fatal(err)
			}
			if len(logged) != len(seen) || len(seen) == 0 {
				t.Fatalf("log holds %d events, observer saw %d", len(logged), len(seen))
			}
			for i, l := range logged {
				want := nimblock.TraceEvent{At: time.Duration(l.At) * time.Microsecond, Kind: l.Kind,
					App: l.App, AppID: l.AppID, Task: l.Task, Slot: l.Slot, Item: l.Item}
				if seen[i] != want {
					t.Fatalf("event %d: observer saw %+v, log holds %+v", i, seen[i], want)
				}
			}
		})
	}
}
