package experiments

import (
	"testing"

	"nimblock/internal/obs"
)

// Every driver that simulates boards feeds Config.NewObserver one sink
// per board, so a shared registry (the -serve side-channel) sees one
// response observation per completed application: boards sharing a sink
// would overwrite each other's arrivals by board-local AppID, and a
// driver that never calls NewObserver would record nothing.
func TestDriversObserveEveryCompletion(t *testing.T) {
	base := QuickConfig()
	base.Sequences = 1
	perSeq := base.Sequences * base.Events
	cases := []struct {
		name string
		// run drives the sweep and returns its completed results; -1 when
		// the driver's result does not expose a count.
		run func(Config) (int, error)
	}{
		{"chaos", func(cfg Config) (int, error) {
			_, err := Chaos(cfg)
			return len(ChaosRates) * len(PolicyNames) * perSeq, err
		}},
		{"checkpoint", func(cfg Config) (int, error) {
			_, err := CheckpointAblation(cfg)
			return len(CheckpointVariants) * len(CheckpointPolicies) * perSeq, err
		}},
		{"failover", func(cfg Config) (int, error) {
			r, err := Failover(cfg)
			if err != nil {
				return 0, err
			}
			n := 0
			for _, byRec := range r.Cells {
				for _, byMode := range byRec {
					for _, c := range byMode {
						n += c.Completed
					}
				}
			}
			return n, nil
		}},
		{"hetero", func(cfg Config) (int, error) {
			r, err := Hetero(cfg)
			if err != nil {
				return 0, err
			}
			n := 0
			for _, byPol := range r.Cells {
				for _, c := range byPol {
					n += c.Completed
				}
			}
			return n, nil
		}},
		{"overload", func(cfg Config) (int, error) {
			r, err := Overload(cfg, nil)
			if err != nil {
				return 0, err
			}
			n := 0
			for _, pt := range r.Points {
				n += pt.Offered - pt.Shed
			}
			return n, nil
		}},
		{"scaleout", func(cfg Config) (int, error) {
			_, err := ScaleOut(cfg)
			return len(ScaleOutBoards) * len(scaleOutDispatches) * perSeq, err
		}},
		{"utilization", func(cfg Config) (int, error) {
			_, err := UtilizationStudy(cfg)
			return len(PolicyNames) * perSeq, err
		}},
		{"optimality", func(cfg Config) (int, error) {
			_, err := Optimality(cfg)
			return -1, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			reg := obs.NewRegistry()
			cfg.NewObserver = func() obs.Sink { return obs.NewMetrics(reg, cfg.HV.Board.Slots) }
			completed, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			responses := reg.Histogram("nimblock_response_seconds", "", obs.DefaultLatencyBuckets).Count()
			retired := reg.Counter("nimblock_apps_completed_total", "").Value()
			if responses == 0 || responses != retired {
				t.Fatalf("%d response observations for %d retirements", responses, retired)
			}
			if completed >= 0 && int64(completed) != retired {
				t.Fatalf("%d retirements observed for %d completed results", retired, completed)
			}
		})
	}
}
