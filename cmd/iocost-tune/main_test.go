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
	checkReportGolden(t, sc, 1, "testdata/fleet-a_seed1.json")
}

// TestScenarioGoldens pins the JSON reports of
//
//	iocost-tune -json -scenario hdd -seed 7 -window 200 -hill 1
//	iocost-tune -json -device ebs-gp3 -seed 3 -window 200 -hill 1
//
// byte for byte, so the spinning-disk and cloud-volume arms of the
// device-derived iocost defaults are pinned alongside fleet-a's SSD.
func TestScenarioGoldens(t *testing.T) {
	hdd, err := tune.ScenarioByName("hdd")
	if err != nil {
		t.Fatal(err)
	}
	checkReportGolden(t, hdd, 7, "testdata/hdd_seed7.json")
	gp3, err := deviceScenario("ebs-gp3")
	if err != nil {
		t.Fatal(err)
	}
	checkReportGolden(t, gp3, 3, "testdata/device-ebs-gp3_seed3.json")
}

// checkReportGolden runs the search with -window 200 -hill 1 and compares
// its JSON report with file.
func checkReportGolden(t *testing.T, sc tune.Scenario, seed uint64, file string) {
	t.Helper()
	res, err := tune.Search(sc, tune.Options{Seed: seed, Window: 200 * sim.Millisecond, HillRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from %s:\n%s", file, got)
	}
}
