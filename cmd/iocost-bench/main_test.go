package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestShedderFiguresGolden pins the text of
//
//	iocost-bench -short -run fig10,fig11,ext-degradation,ext-faults
//
// byte for byte apart from the wall-clock footers. These are the figures
// driven by load shedders; the golden was produced with every pacing tick
// scheduled as a real event, so it also pins that parking the at-cap ticks
// (sim.Pacer) changes no simulated output.
func TestShedderFiguresGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/short_shed.txt")
	if err != nil {
		t.Fatal(err)
	}
	wall := regexp.MustCompile(`(?m)^--- \([0-9.]+s wall\)$`)
	want := wall.ReplaceAllString(string(raw), "--- (wall)")

	var got strings.Builder
	for _, id := range []string{"fig10", "fig11", "ext-degradation", "ext-faults"} {
		for _, e := range experiments {
			if e.id == id {
				fmt.Fprintf(&got, "=== %s [%s]\n%s--- (wall)\n\n", e.title, e.id, e.run(true))
			}
		}
	}
	if got.String() != want {
		t.Errorf("output differs from testdata/short_shed.txt:\n%s", got.String())
	}
}
