package rcb_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/rcb"
	"github.com/iocost-sim/iocost/internal/sim"
)

// TestTuneGolden pins a short §3.4 tuning sweep on the older-generation
// SSD byte for byte: the swept RPS and p95 points, the vrate bounds they
// select and the device-derived latency targets. Regenerate after an
// intentional behavior change with:
//
//	UPDATE_TUNE_GOLDEN=1 go test ./internal/rcb -run TestTuneGolden
func TestTuneGolden(t *testing.T) {
	res := rcb.Tune(device.OlderGenSSD(), rcb.TuneOptions{Duration: 2 * sim.Second, Seed: 3})
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const file = "testdata/tune_older-gen_seed3.json"
	if os.Getenv("UPDATE_TUNE_GOLDEN") != "" {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("tune result differs from %s:\n%s", file, got)
	}
}
