package nimblock

import (
	"testing"
	"time"
)

// parityTarget builds one front-end from a Config, submits the parity
// workload, and runs it.
type parityTarget struct {
	name string
	run  func(cfg Config, apps []*Application) error
}

// paritySpecs is a heterogeneous two-board fleet; both boards keep the
// slot the parity FaultPlan kills.
var paritySpecs = []*BoardSpec{
	{Slots: 8},
	{Slots: 6, LatencyScale: 1.5},
}

func parityTargets() []parityTarget {
	cluster := func(specs []*BoardSpec) func(Config, []*Application) error {
		return func(cfg Config, apps []*Application) error {
			cl, err := NewCluster(ClusterConfig{Config: cfg, Boards: 2, BoardSpecs: specs})
			if err != nil {
				return err
			}
			for i, app := range apps {
				if err := cl.Submit(app, 2, PriorityMedium, time.Duration(i)*100*time.Millisecond); err != nil {
					return err
				}
			}
			_, err = cl.Run()
			return err
		}
	}
	platform := func(specs []*BoardSpec) func(Config, []*Application) error {
		return func(cfg Config, apps []*Application) error {
			pl, err := NewPlatform(ServerlessConfig{Config: cfg, Boards: 2, BoardSpecs: specs})
			if err != nil {
				return err
			}
			for i, app := range apps {
				if err := pl.Register(app.Name(), app, PriorityMedium); err != nil {
					return err
				}
				if err := pl.Invoke(app.Name(), 2, time.Duration(i)*100*time.Millisecond); err != nil {
					return err
				}
			}
			_, err = pl.Run()
			return err
		}
	}
	return []parityTarget{
		{"System", func(cfg Config, apps []*Application) error {
			sys, err := NewSystem(cfg)
			if err != nil {
				return err
			}
			for i, app := range apps {
				if err := sys.Submit(app, 2, PriorityMedium, time.Duration(i)*100*time.Millisecond); err != nil {
					return err
				}
			}
			_, err = sys.Run()
			return err
		}},
		{"Cluster", cluster(nil)},
		{"Cluster/BoardSpecs", cluster(paritySpecs)},
		{"Platform", platform(nil)},
		{"Platform/BoardSpecs", platform(paritySpecs)},
	}
}

// TestConfigReachesEveryBoard checks that one Config builds the same
// boards through every constructor: each case sets a field with an
// observable effect and expects that effect from a System, a Cluster
// and a Platform alike, with and without per-board specs.
func TestConfigReachesEveryBoard(t *testing.T) {
	var apps []*Application
	for _, name := range []string{LeNet, OpticalFlow, ImageCompression, Rendering3D} {
		app, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	cases := []struct {
		name string
		set  func(*Config)
		// want checks the observed event counts and the build-or-run error.
		want func(t *testing.T, counts map[string]int, err error)
	}{
		{"Observer", func(*Config) {}, func(t *testing.T, counts map[string]int, err error) {
			if err != nil || counts["arrival"] != len(apps) {
				t.Fatalf("err=%v, observer saw %d of %d arrivals", err, counts["arrival"], len(apps))
			}
		}},
		{"Checkpoint", func(c *Config) {
			c.Checkpoint = CheckpointConfig{Enabled: true, Period: 50 * time.Millisecond}
		}, func(t *testing.T, counts map[string]int, err error) {
			if err != nil || counts["ckpt-save"] == 0 {
				t.Fatalf("err=%v, %d ckpt-save events", err, counts["ckpt-save"])
			}
		}},
		{"WatchdogFactor", func(c *Config) {
			c.FaultPlan = "seed 3\nhang prob=0.2"
			c.WatchdogFactor = 3
		}, func(t *testing.T, counts map[string]int, err error) {
			if err != nil || counts["watchdog"] == 0 {
				t.Fatalf("err=%v, %d watchdog kills", err, counts["watchdog"])
			}
		}},
		{"FaultPlan", func(c *Config) {
			c.FaultPlan = "dead slot=1 at=200ms"
		}, func(t *testing.T, counts map[string]int, err error) {
			if err != nil || counts["slot-offline"] == 0 {
				t.Fatalf("err=%v, %d slot-offline events", err, counts["slot-offline"])
			}
		}},
		{"Interconnect/bogus", func(c *Config) {
			c.Interconnect = "bogus"
		}, func(t *testing.T, _ map[string]int, err error) {
			if err == nil {
				t.Fatal("bogus interconnect accepted")
			}
		}},
		{"FaultPlan/malformed", func(c *Config) {
			c.FaultPlan = "dead slot=one at=1s"
		}, func(t *testing.T, _ map[string]int, err error) {
			if err == nil {
				t.Fatal("malformed fault plan accepted")
			}
		}},
	}
	for _, tc := range cases {
		for _, tg := range parityTargets() {
			t.Run(tc.name+"/"+tg.name, func(t *testing.T) {
				counts := map[string]int{}
				cfg := DefaultConfig()
				cfg.Horizon = time.Hour
				cfg.Observer = ObserverFunc(func(e TraceEvent) { counts[e.Kind]++ })
				tc.set(&cfg)
				tc.want(t, counts, tg.run(cfg, apps))
			})
		}
	}
}
