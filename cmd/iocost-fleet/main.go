// Command iocost-fleet simulates a datacenter: hosts sharded into racks,
// per-host operation outcomes driven by controller failure curves, with
// migration waves, rolling canary config pushes, and rack-correlated fault
// storms. Results stream into one bounded summary (per-tick counters plus a
// mergeable latency sketch) — a 100k-host run retains no per-host state.
//
// Determinism contract: the merged summary is byte-identical for every
// -workers value, because each host's randomness derives from the fleet
// seed and its ID, shards merge in index order, and the shard layout never
// depends on the worker count. `make fleet-smoke` enforces this in CI.
//
// Usage:
//
//	iocost-fleet [-hosts 10000] [-rack-size 32] [-ticks 8] [-tick 1s]
//	             [-ops 20] [-workers 0] [-seed 1] [-kind fetch|cleanup]
//	             [-fidelity outcome|sampled|full] [-sample-frac 0.01]
//	             [-migrate] [-push] [-canary 0.05]
//	             [-storm-racks 0,1] [-storm storm|spec]
//	             [-measure] [-trials 3]
//	             [-mode text|openmetrics|json] [-o out]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/iocost-sim/iocost/internal/cli"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
)

const tool = "iocost-fleet"

func main() {
	cli.Setup(tool, "[-hosts N] [-workers N] [-kind fetch|cleanup] [options]")
	hosts := flag.Int("hosts", 10000, "hosts in the cluster")
	rackSize := flag.Int("rack-size", 32, "hosts per rack")
	ticks := flag.Int("ticks", 8, "simulation ticks")
	tick := flag.Duration("tick", time.Second, "simulated duration of one tick (fault-plan windows are on this clock)")
	ops := flag.Int("ops", 20, "system-slice operations per host per tick")
	workers := flag.Int("workers", 0, "shard fan-out width (0 = serial; results identical for every value)")
	seed := flag.Uint64("seed", 1, "fleet seed")
	kindName := flag.String("kind", "fetch", "operation under test: fetch (Fig 18) or cleanup (Fig 19)")
	fidelity := flag.String("fidelity", "outcome", "host model: outcome (curves), sampled (seed-drawn subset runs full machines), or full")
	sampleFrac := flag.Float64("sample-frac", 0, "fraction of hosts running full machines with -fidelity sampled (0 = default 0.01)")
	migrate := flag.Bool("migrate", true, "roll the fleet from io.latency to iocost across the run")
	push := flag.Bool("push", false, "roll out a QoS config push with a canary stage")
	canary := flag.Float64("canary", 0.05, "canary fraction for -push")
	stormRacks := flag.String("storm-racks", "", "comma-separated racks sharing the -storm fault plan")
	stormSpec := flag.String("storm", "", "fault plan for the stormed racks: a preset ("+
		strings.Join(fault.PresetNames(), ", ")+") or kind:at=2s,dur=3s,... episodes")
	flightSample := flag.Float64("flight-sample", 0, "sample this fraction of hosts with flight recorders (seed-derived subset; 0 disables)")
	flightFail := flag.Float64("flight-fail", 0, "per-host per-tick failure fraction that files an incident (0 = default 0.5)")
	measure := flag.Bool("measure", false, "measure failure curves with live per-host micro-simulations instead of canned curves")
	trials := flag.Int("trials", 3, "micro-simulation trials per pressure point for -measure")
	mode := flag.String("mode", "text", "output: text summary, openmetrics roll-ups, or json export")
	out := flag.String("o", "", "write output to this file instead of stdout")
	cli.Parse(tool)

	var kind fleet.OpKind
	switch *kindName {
	case "fetch":
		kind = fleet.PackageFetch
	case "cleanup":
		kind = fleet.ContainerCleanup
	default:
		cli.Fatalf(tool, "unknown kind %q (want fetch or cleanup)", *kindName)
	}

	if *ticks < 1 {
		cli.Fatalf(tool, "-ticks %d: need at least one tick", *ticks)
	}
	if *trials < 1 {
		cli.Fatalf(tool, "-trials %d: need at least one trial", *trials)
	}

	fidMode, err := fleet.ParseFidelityMode(*fidelity)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}

	cfg := fleet.ClusterConfig{
		Hosts:          *hosts,
		RackSize:       *rackSize,
		Ticks:          *ticks,
		TickDur:        sim.Time(*tick),
		OpsPerHostTick: *ops,
		Seed:           *seed,
		Workers:        *workers,
		Kind:           kind,
		Fidelity: fleet.Fidelity{
			Mode:       fidMode,
			SampleFrac: *sampleFrac,
		},
	}
	if fidMode != fleet.FidelityOutcome {
		cfg.Fidelity.Machine = exp.NewFleetHost
	}
	if *migrate {
		cfg.Migration = &fleet.MigrationWave{StartTick: 0, Ticks: *ticks}
	}
	if *push {
		cfg.Push = &fleet.ConfigPush{
			StartTick:  *ticks / 4,
			CanaryFrac: *canary,
			RampTicks:  max(*ticks/4, 1),
			FailFactor: 0.85,
			LatFactor:  0.95,
		}
	}
	if (*stormRacks == "") != (*stormSpec == "") {
		cli.Fatalf(tool, "-storm-racks and -storm must be given together")
	}
	if *stormSpec != "" {
		plan, err := fault.ParsePlan(*stormSpec)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		racks, err := parseRacks(*stormRacks)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		cfg.Storms = []fleet.FaultStorm{{Racks: racks, Plan: plan}}
	}
	if *flightSample < 0 || *flightSample > 1 {
		cli.Fatalf(tool, "-flight-sample %v outside [0,1]", *flightSample)
	}
	if *flightSample > 0 {
		cfg.Flight = &fleet.FleetFlight{SampleFrac: *flightSample, FailCeil: *flightFail}
	} else if *flightFail != 0 {
		cli.Fatalf(tool, "-flight-fail requires -flight-sample > 0")
	}
	if *measure {
		cfg.Old, cfg.New = exp.MeasuredFleetCurves(kind, *trials)
	}

	s, err := fleet.RunCluster(cfg)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}

	w, closer := output(*out)
	switch *mode {
	case "text":
		_, err = io.WriteString(w, s.Format())
	case "openmetrics":
		err = s.WriteOpenMetrics(w)
	case "json":
		err = s.WriteJSON(w)
	default:
		cli.Fatalf(tool, "unknown mode %q", *mode)
	}
	if err == nil {
		err = closer()
	}
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
}

// parseRacks parses a comma-separated rack list, preserving order.
func parseRacks(spec string) ([]int, error) {
	var racks []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad rack %q: %v", part, err)
		}
		racks = append(racks, r)
	}
	if len(racks) == 0 {
		return nil, fmt.Errorf("empty rack list %q", spec)
	}
	return racks, nil
}

// output opens the destination; the closer is a no-op for stdout.
func output(path string) (io.Writer, func() error) {
	if path == "" {
		return os.Stdout, func() error { return nil }
	}
	f, err := os.Create(path)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	return f, f.Close
}
