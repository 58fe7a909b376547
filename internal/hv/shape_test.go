package hv_test

import (
	"fmt"
	"os"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/sim"
)

// TestShapeReport prints per-policy responses for manual inspection.
// Enabled with NIMBLOCK_SHAPE=1.
func TestShapeReport(t *testing.T) {
	if os.Getenv("NIMBLOCK_SHAPE") == "" {
		t.Skip("set NIMBLOCK_SHAPE=1 to print the shape report")
	}
	subs := []submission{}
	arr := sim.Time(0)
	for _, n := range []string{apps.ImageCompression, apps.LeNet, apps.Rendering3D, apps.OpticalFlow, apps.AlexNet, apps.DigitRecognition, apps.LeNet, apps.ImageCompression} {
		subs = append(subs, submission{n, 5, 3, arr})
		arr = arr.Add(500 * sim.Millisecond)
	}
	for name, mk := range policies() {
		res, _ := runSuite(t, mk(), subs, nil)
		var tot float64
		for _, r := range res {
			tot += r.Response.Seconds()
			fmt.Printf("%-8s %-18s arr=%7.1f resp=%9.2fs wait=%9.2fs preempt=%d\n", name, r.App, r.Arrival.Seconds(), r.Response.Seconds(), r.Wait.Seconds(), r.Preemptions)
		}
		fmt.Printf("%-8s TOTAL %.2fs\n\n", name, tot)
	}
	_ = core.DefaultOptions
}
