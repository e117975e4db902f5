// Package tune is the closed-loop QoS auto-tuner: a controller of the
// controllers that searches iocost QoS knobs by racing candidate
// configurations as forked deterministic simulation branches and scoring
// each against a pluggable objective (maximize best-effort throughput
// subject to a protected p99 target, by default). The paper tunes these
// parameters by hand (§3.4) and calls the process laborious and
// device-specific; this package is the automation the resctl tooling later
// grew, rebuilt inside the simulator where candidate evaluation is cheap
// and exactly repeatable.
//
// The determinism contract is the fleet one: every random draw comes from
// an rng.Derive stream of the scenario seed, every candidate branch is a
// self-contained machine evaluated by a pure function of (scenario, QoS,
// seed, window), and fan-out goes through internal/fanout, which collects
// results in index order. The recommended configuration is therefore a pure
// function of (seed, scenario, objective) — byte-identical across repeated
// runs and across worker counts, which `make tune-smoke` and
// TestTuneDeterministic pin.
//
// Candidate measurement uses the registry's typed accessors
// (registry.GaugeValue and friends) rather than scraping OpenMetrics text:
// the tuner watches exactly what an operator's dashboards watch — vrate,
// PSI io.pressure, per-cgroup byte counters, protected-workload latency
// quantiles — just without a serialization round-trip.
package tune

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/sim"
)

// Scenario is one tuning situation: a device and the latency contract the
// protected workload needs from it. The workload shape is fixed — a
// latency-sensitive load-shedding service (weight 800) sharing the device
// with best-effort bulk readers and writers (weight 100) — because that is
// the shape the objective trades off: how much bulk throughput can this
// device deliver while the service's p99 holds.
type Scenario struct {
	// Name identifies the scenario in reports and on the command line.
	Name string

	// Device is the machine's device model; its iocost defaults
	// (exp.DeviceChoice.IOCostDefaults) are the cost model every branch
	// runs with and the hand-tuned config the search races against.
	Device exp.DeviceChoice

	// Target is the protected workload's p99 completion-latency ceiling,
	// the constraint side of the default objective.
	Target sim.Time
	// ShedTarget is the load shedder's internal p50 ceiling (its own
	// admission control), a fraction of Target.
	ShedTarget sim.Time
}

// Validate checks that the scenario selects exactly one device and has
// positive latency targets.
func (sc Scenario) Validate() error {
	if err := sc.Device.Validate(); err != nil {
		return fmt.Errorf("tune: scenario %q %w", sc.Name, err)
	}
	if sc.Name == "" {
		return fmt.Errorf("tune: scenario has no name")
	}
	if sc.Target <= 0 || sc.ShedTarget <= 0 {
		return fmt.Errorf("tune: scenario %q needs positive Target and ShedTarget", sc.Name)
	}
	return nil
}

func fleetScenario(name string, target, shed sim.Time) Scenario {
	spec, err := device.FleetSSDSpec(name)
	if err != nil {
		panic(err)
	}
	return Scenario{
		Name: "fleet-" + strings.ToLower(name), Device: exp.DeviceChoice{SSD: &spec},
		Target: target, ShedTarget: shed,
	}
}

// FleetA is fleet SSD type A (Figure 3): moderate IOPS, higher latency —
// the device class the paper's production examples run on.
func FleetA() Scenario { return fleetScenario("A", 2*sim.Millisecond, 500*sim.Microsecond) }

// FleetH is fleet SSD type H: high IOPS at low latency, where a permissive
// config leaves protection on the table.
func FleetH() Scenario { return fleetScenario("H", 1*sim.Millisecond, 300*sim.Microsecond) }

// HDD is the Figure 12 spinning disk: seek-dominated latencies mean every
// SSD-shaped QoS default is wrong in both directions.
func HDD() Scenario {
	spec := device.EvalHDD()
	return Scenario{
		Name: "hdd", Device: exp.DeviceChoice{HDD: &spec},
		Target: 250 * sim.Millisecond, ShedTarget: 40 * sim.Millisecond,
	}
}

// RemoteGP3 is the provisioned-IOPS cloud volume of Figure 17.
func RemoteGP3() Scenario {
	spec := device.EBSgp3()
	return Scenario{
		Name: "remote-gp3", Device: exp.DeviceChoice{Remote: &spec},
		Target: 10 * sim.Millisecond, ShedTarget: 3 * sim.Millisecond,
	}
}

// Scenarios returns the built-in scenarios in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{FleetA(), FleetH(), HDD(), RemoteGP3()}
}

// ScenarioNames lists the built-in scenario names, for usage strings.
func ScenarioNames() []string {
	scs := Scenarios()
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name
	}
	return names
}

// ScenarioByName resolves a built-in scenario.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("tune: unknown scenario %q", name)
}
