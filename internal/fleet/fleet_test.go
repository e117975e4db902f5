package fleet_test

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/fleet"
)

func TestCurveInterpolation(t *testing.T) {
	c := fleet.Curve{
		Pressures: []float64{0.2, 0.6, 1.0},
		FailProb:  []float64{0.0, 0.1, 0.5},
	}
	cases := map[float64]float64{
		0.0: 0.0, 0.2: 0.0, 0.4: 0.05, 0.6: 0.1, 0.8: 0.3, 1.0: 0.5, 1.5: 0.5,
	}
	for p, want := range cases {
		if got := c.At(p); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("At(%v) = %v, want %v", p, got, want)
		}
	}
	var empty fleet.Curve
	if empty.At(0.5) != 0 {
		t.Error("empty curve should interpolate to 0")
	}
}

// TestMigrationSweepMonotoneWithBetterCurve: a week-aligned wave (none of
// the hosts migrated in week 0, all of them in the last week) from a flat
// 0.2 curve to a flat 0.02 one cuts failures about 10x, trending down.
func TestMigrationSweepMonotoneWithBetterCurve(t *testing.T) {
	old := fleet.Curve{Pressures: []float64{0, 2}, FailProb: []float64{0.2, 0.2}}
	new_ := fleet.Curve{Pressures: []float64{0, 2}, FailProb: []float64{0.02, 0.02}}
	s, err := fleet.RunCluster(fleet.ClusterConfig{
		Hosts: 3000, Ticks: 6, Seed: 5, Old: old, New: new_,
		Migration: &fleet.MigrationWave{StartTick: 1, Ticks: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PerTick) != 6 {
		t.Fatalf("series has %d points", len(s.PerTick))
	}
	fails := make([]float64, len(s.PerTick))
	for i, ts := range s.PerTick {
		fails[i] = float64(ts.Fails)
	}
	first, last := fails[0], fails[len(fails)-1]
	if last >= first/5 {
		t.Errorf("migration to a 10x-better curve only reduced failures %vx", first/last)
	}
	// Roughly monotone decreasing (Monte-Carlo noise allowed).
	ups := 0
	for i := 1; i < len(fails); i++ {
		if fails[i] > fails[i-1]*1.15 {
			ups++
		}
	}
	if ups > 1 {
		t.Errorf("failure series not trending down: %v", fails)
	}
}
