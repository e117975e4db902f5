package main

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/tune"
)

// The auto-tuning extension row: run the closed-loop tuner (internal/tune)
// on the fleet SSD A and spinning-disk scenarios and report how the
// recommended config compares against the kernel default and the §3.4
// hand-tuned config — the "operate them" counterpart to the paper's
// hand-tuning narrative.

// autoTuneRow is one (scenario, config) comparison line.
type autoTuneRow struct {
	Scenario  string
	Config    string // "auto", "hand", "default"
	QoS       string
	Score     float64
	P99Ms     float64
	BulkMBps  float64
	VrateMean float64
}

// autoTune runs the tuner (seed 42, four candidate workers) on the
// comparison scenarios and returns rows in (scenario, auto/hand/default)
// order. short shrinks the search for smoke runs.
func autoTune(short bool) []autoTuneRow {
	sopts := tune.Options{Seed: 42, Workers: 4}
	if short {
		sopts.Candidates = 8
		sopts.Window = 250 * sim.Millisecond
		sopts.Warmup = 150 * sim.Millisecond
		sopts.HillRounds = 1
		sopts.HillNeighbors = 3
	}
	var rows []autoTuneRow
	for _, sc := range []tune.Scenario{tune.FleetA(), tune.HDD()} {
		res, err := tune.Search(sc, sopts)
		if err != nil {
			panic(err) // built-in scenarios and options are valid by construction
		}
		for _, c := range []struct {
			name string
			cand tune.Candidate
		}{{"auto", res.Best}, {"hand", res.HandTuned}, {"default", res.Baseline}} {
			rows = append(rows, autoTuneRow{
				Scenario:  sc.Name,
				Config:    c.name,
				QoS:       c.cand.QoS.String(),
				Score:     c.cand.Score,
				P99Ms:     float64(c.cand.Meas.P99) / 1e6,
				BulkMBps:  c.cand.Meas.BulkBps / 1e6,
				VrateMean: c.cand.Meas.VrateMean,
			})
		}
	}
	return rows
}

// formatAutoTune renders the comparison table.
func formatAutoTune(rows []autoTuneRow) string {
	var b strings.Builder
	b.WriteString("auto-tuned vs hand-tuned QoS (objective: bulk throughput s.t. protected p99)\n")
	fmt.Fprintf(&b, "%-10s %-8s %10s %9s %11s %7s  %s\n",
		"scenario", "config", "score", "p99(ms)", "bulk(MB/s)", "vrate", "io.cost.qos")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s %10.3f %9.3f %11.1f %7.3f  %s\n",
			r.Scenario, r.Config, r.Score, r.P99Ms, r.BulkMBps, r.VrateMean, r.QoS)
	}
	return b.String()
}
