package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
	"github.com/iocost-sim/iocost/internal/workload"
)

// runOp executes one fleet operation on a fresh machine running the given
// controller on the older-generation SSD (the fleet's most contended device
// class), whose main workload exerts the given pressure (a fraction of
// readCapBps/writeCapBps). It returns the operation's completion time, or
// 3x the deadline if it did not finish within that window.
func runOp(controller string, kind fleet.OpKind, pressure float64, seed uint64) (sim.Time, bool) {
	m := MustNewMachine(MachineConfig{
		Device: ssdChoice(device.OlderGenSSD()), Controller: controller, Seed: seed,
	})
	if iol, ok := m.Ctl.(*ctl.IOLatency); ok {
		// Production io.latency deployments protect the workload tier;
		// system services run without targets (lowest priority), which
		// is exactly how they starve.
		iol.SetTarget(m.Workload, 10*sim.Millisecond)
	}

	// Main workload pressure: open-loop random reads plus buffered writes
	// scaled to the requested fraction of device capability.
	job := m.Workload.NewChild("job", cgroup.DefaultWeight)
	rd := workload.NewReplayer(m.Q, job, workload.DemandProfile{
		Name:          "pressure",
		ReadBps:       pressure * readCapBps,
		WriteBps:      pressure * writeCapBps,
		ReadRandFrac:  0.8,
		WriteRandFrac: 0.3,
		IOSize:        16 << 10,
	}, 0, seed^0xf1ee7)
	rd.Start()

	// Let contention establish.
	m.Run(500 * sim.Millisecond)

	p := kind.Probe(1)
	parent := m.HostCritical
	if p.System {
		parent = m.System
	}
	agent := parent.NewChild("op", cgroup.DefaultWeight)
	op := startFleetOp(m, agent, p, probeRegion, rng.Derive(seed, 0x09), nil)
	m.Run(op.start + 3*p.Deadline)
	rd.Stop()
	if !op.done {
		return 3 * p.Deadline, false
	}
	return op.lat, op.lat <= p.Deadline
}

// measureCurve builds a failure-probability curve for one controller by
// running trials at each pressure level (ascending), folding in the
// operation's non-IO failure floor.
func measureCurve(controller string, kind fleet.OpKind, pressures []float64, trials int, seed uint64) fleet.Curve {
	c := fleet.Curve{Kind: kind, Pressures: pressures}
	base := kind.BaseFailProb()
	for _, p := range pressures {
		fails := 0
		for t := 0; t < trials; t++ {
			if _, ok := runOp(controller, kind, p, seed+uint64(t)*7919+uint64(p*1000)); !ok {
				fails++
			}
		}
		ioFail := float64(fails) / float64(trials)
		c.FailProb = append(c.FailProb, ioFail+(1-ioFail)*base)
	}
	return c
}

// MeasuredFleetCurves derives the old (io.latency) and new (iocost)
// failure curves from live per-host micro-simulations — the first level of
// the Figs 18/19 methodology. Trials <= 0 selects 3 per pressure point.
func MeasuredFleetCurves(kind fleet.OpKind, trials int) (old, new_ fleet.Curve) {
	if trials <= 0 {
		trials = 3
	}
	pressures := []float64{0.3, 0.6, 0.8, 0.88, 0.95, 1.02, 1.1}
	controllers := []string{KindIOLatency, KindIOCost}
	curves := fanout.ForEach(2, func(i int) fleet.Curve {
		return measureCurve(controllers[i], kind, pressures, trials, 0x18+uint64(i))
	})
	return curves[0], curves[1]
}

// FleetResult is one migration sweep (Figure 18 or 19).
type FleetResult struct {
	Kind      fleet.OpKind
	OldCurve  fleet.Curve
	NewCurve  fleet.Curve
	Weekly    *stats.Series
	Reduction float64 // first-week failures / last-week failures
}

// FigFleetOptions tunes both fleet experiments.
type FigFleetOptions struct {
	// Trials per (controller, pressure) micro-simulation point; 0
	// selects 5.
	Trials int
	// Hosts in the Monte-Carlo region; 0 selects 2000.
	Hosts int
}

// fleetWeeks is the Figs 18/19 region sweep: eight weekly ticks with w/7
// of the hosts migrated from the old curve to the new one in week w — none
// in week 0, all of them in week 7.
func fleetWeeks(kind fleet.OpKind, hosts int, old, new_ fleet.Curve) fleet.ClusterConfig {
	return fleet.ClusterConfig{
		Hosts:     hosts,
		Ticks:     8,
		Seed:      0x181,
		Kind:      kind,
		Old:       old,
		New:       new_,
		Migration: &fleet.MigrationWave{StartTick: 1, Ticks: 7},
	}
}

// runFleet builds the IOLatency and IOCost failure curves for the given
// operation and sweeps the region migration.
func runFleet(kind fleet.OpKind, opts FigFleetOptions) FleetResult {
	trials := opts.Trials
	if trials == 0 {
		trials = 5
	}
	hosts := opts.Hosts
	if hosts == 0 {
		hosts = 2000
	}
	old, new_ := MeasuredFleetCurves(kind, trials)
	cfg := fleetWeeks(kind, hosts, old, new_)
	if fanout.ParallelEnabled() {
		cfg.Workers = fanout.DefaultWorkers()
	}
	s, err := fleet.RunCluster(cfg)
	if err != nil {
		panic(err)
	}
	weekly := &stats.Series{Name: kind.String() + "-failures"}
	for w, ts := range s.PerTick {
		weekly.Add(float64(w), float64(ts.Fails))
	}
	return FleetResult{Kind: kind, OldCurve: old, NewCurve: new_, Weekly: weekly, Reduction: s.Reduction()}
}

// Fig18 reproduces the package-fetch failure-reduction sweep.
func Fig18(opts FigFleetOptions) FleetResult { return runFleet(fleet.PackageFetch, opts) }

// Fig19 reproduces the container-cleanup failure-reduction sweep.
func Fig19(opts FigFleetOptions) FleetResult { return runFleet(fleet.ContainerCleanup, opts) }

// FormatFleet renders a migration sweep.
func FormatFleet(r FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s migration (iolatency -> iocost)\n", r.Kind)
	fmt.Fprintf(&b, "  fail-prob curve old: %v\n", curveString(r.OldCurve))
	fmt.Fprintf(&b, "  fail-prob curve new: %v\n", curveString(r.NewCurve))
	fmt.Fprintf(&b, "  weekly failures:")
	for i := range r.Weekly.X {
		fmt.Fprintf(&b, " w%d=%.0f", int(r.Weekly.X[i]), r.Weekly.Y[i])
	}
	fmt.Fprintf(&b, "\n  reduction: %.1fx\n", r.Reduction)
	return b.String()
}

func curveString(c fleet.Curve) string {
	var b strings.Builder
	for i := range c.Pressures {
		fmt.Fprintf(&b, "p=%.2f:%.2f ", c.Pressures[i], c.FailProb[i])
	}
	return strings.TrimSpace(b.String())
}
