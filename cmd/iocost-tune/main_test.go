package main

import (
	"bytes"
	"os"
	"testing"

	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/tune"
)

// TestFleetAGolden pins the JSON report of
//
//	iocost-tune -json -seed 1 -window 200 -hill 1
//
// byte for byte. The golden was produced with every load-shedder pacing
// tick scheduled as a real event, so it also pins that parking the
// shedder's at-cap ticks (sim.Pacer) changes no simulated output.
func TestFleetAGolden(t *testing.T) {
	sc, err := tune.ScenarioByName("fleet-a")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tune.Search(sc, tune.Options{Seed: 1, Window: 200 * sim.Millisecond, HillRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fleet-a_seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from testdata/fleet-a_seed1.json:\n%s", got)
	}
}
