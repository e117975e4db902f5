package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// ExtFaults is the fault-injection extension experiment: a latency-sensitive
// load-shedder (protected, weight 800) shares a fleet SSD with a best-effort
// bulk reader (weight 100) while the device suffers a storm — a 10x latency
// inflation plus a 1% transient error rate for one phase. Failure semantics
// are live: errored completions are retried with backoff and every
// controller is charged for the retried work. Without control the storm
// blows the protected workload's p99 through the roof; with IOCost, vrate
// tightens to follow the device down and the protected p99 stays within 2x
// of its fault-free value while the best-effort tier absorbs the retries.

// ExtFaultsRow is one mechanism's outcome.
type ExtFaultsRow struct {
	Mechanism string
	// P99 of the protected workload in each phase (ms).
	HealthyP99 float64
	StormP99   float64
	RecoverP99 float64
	// Mean vrate before and during the storm (iocost only).
	VrateHealthy float64
	VrateStorm   float64
	// Block-layer failure accounting over the whole run.
	Errors  uint64
	Retries uint64
	// Retried submissions split by tier during the storm measurement
	// window: who pays for the repair work. Errors strike per completion,
	// so the work-conserving best-effort tier — which does almost all the
	// IO while the protected service sheds — absorbs almost all retries.
	SvcRetries  uint64
	BulkRetries uint64
	// SvcShare is the protected workload's fraction of completions during
	// the storm.
	SvcShare float64
	// SvcIOPS is the protected workload's delivered throughput during the
	// storm: the number a load-shedding service actually lives on.
	SvcIOPS float64
}

// ExtFaultsOptions tunes the run.
type ExtFaultsOptions struct {
	Phase sim.Time // per-phase duration; 0 selects 5s
}

// ExtFaultsSeed makes the run reproducible; the golden fault-replay test
// pins the trace this seed produces.
const ExtFaultsSeed = 0xfa

// ExtFaultsPlan is the storm: 10x latency inflation plus 1% transient
// errors for one phase starting at the given time.
func ExtFaultsPlan(at, dur sim.Time) fault.Plan {
	return fault.Plan{Episodes: []fault.Episode{
		{Kind: fault.Slow, At: at, Dur: dur, Factor: 10},
		{Kind: fault.Error, At: at, Dur: dur, Rate: 0.01},
	}}
}

// retryCounter tallies retried submissions per top-level cgroup.
type retryCounter struct {
	svc, bulk *cgroup.Node
	svcN      uint64
	bulkN     uint64
}

func (rc *retryCounter) OnSubmit(b *bio.Bio) {
	if b.Retries == 0 {
		return
	}
	switch b.CG {
	case rc.svc:
		rc.svcN++
	case rc.bulk:
		rc.bulkN++
	}
}
func (rc *retryCounter) OnIssue(*bio.Bio)    {}
func (rc *retryCounter) OnDispatch(*bio.Bio) {}
func (rc *retryCounter) OnComplete(*bio.Bio) {}

// ExtFaults runs the storm under "none" and "iocost".
func ExtFaults(opts ExtFaultsOptions) []ExtFaultsRow {
	phase := opts.Phase
	if phase == 0 {
		phase = 5 * sim.Second
	}
	spec, err := device.FleetSSDSpec("A")
	if err != nil {
		panic(err)
	}
	var rows []ExtFaultsRow
	for _, kind := range []string{KindNone, KindIOCost} {
		qos := core.HandTunedSSD(spec)
		// A 10x capability loss needs vrate to go far below the tuned
		// floor for the controller to follow the device down.
		qos.VrateMin = 0.05
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(spec),
			Controller: kind,
			IOCostCfg: core.Config{
				Model: core.MustLinearModel(core.IdealSSDParams(spec)),
				QoS:   qos,
			},
			Faults: ExtFaultsPlan(phase, phase),
			// Fast first retry: transient flash errors clear immediately,
			// so an aggressive backoff keeps the repair path short. The
			// p99 of a 1%-error storm is the retry path, so this is what
			// an operator would tune too.
			Retry: &blk.RetryPolicy{MaxRetries: 3, Backoff: 250 * sim.Microsecond},
			Seed:  ExtFaultsSeed,
		})

		svc := m.Workload.NewChild("svc", 800)
		bulk := m.Workload.NewChild("bulk", 100)
		rc := &retryCounter{svc: svc, bulk: bulk}
		m.Q.AddObserver(rc)
		shed := workload.NewLoadShedder(m.Q, workload.LoadShedderConfig{
			CG: svc, Op: bio.Read, Pattern: workload.Random, Size: 4096,
			Target: 2 * sim.Millisecond, MaxInFlight: 128, Seed: 1,
		})
		sat := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: bulk, Op: bio.Read, Pattern: workload.Random, Size: 64 << 10,
			Depth: 64, Region: 100 << 30, Seed: 2,
		})
		shed.Start()
		sat.Start()

		var vrateSum [2]float64
		var vrateN [2]int
		if m.IOCost != nil {
			m.Eng.NewTicker(100*sim.Millisecond, func() {
				now := m.Eng.Now()
				if now >= 2*phase {
					return
				}
				i := 0
				if now >= phase {
					i = 1
				}
				vrateSum[i] += m.IOCost.Vrate()
				vrateN[i]++
			})
		}

		p99 := func(to sim.Time) float64 {
			shed.Stats.Latency.Reset()
			m.Run(to)
			return float64(shed.Stats.Latency.Quantile(0.99)) / 1e6
		}

		row := ExtFaultsRow{Mechanism: kind}
		row.HealthyP99 = p99(phase)

		// Let the controller converge for the first half of the storm,
		// then measure its steady state.
		m.Run(phase + phase/2)
		shed.Stats.TakeWindow()
		sat.Stats.TakeWindow()
		svcR0, bulkR0 := rc.svcN, rc.bulkN
		row.StormP99 = p99(2 * phase)
		row.SvcRetries, row.BulkRetries = rc.svcN-svcR0, rc.bulkN-bulkR0
		sd, bd := shed.Stats.TakeWindow(), sat.Stats.TakeWindow()
		if sd+bd > 0 {
			row.SvcShare = float64(sd) / float64(sd+bd)
		}
		row.SvcIOPS = float64(sd) / (phase / 2).Seconds()
		for i, n := range vrateN {
			if n > 0 {
				vrateSum[i] /= float64(n)
			}
		}
		row.VrateHealthy, row.VrateStorm = vrateSum[0], vrateSum[1]

		// Skip the recovery ramp (retry backlog draining) before measuring.
		m.Run(2*phase + phase/2)
		row.RecoverP99 = p99(3 * phase)

		row.Errors = m.Q.Errors()
		row.Retries = m.Q.Retries()
		rows = append(rows, row)
	}
	return rows
}

// FormatExtFaults renders the comparison.
func FormatExtFaults(rows []ExtFaultsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %10s %10s %10s %8s %8s %12s\n",
		"mechanism", "healthy p99", "storm p99", "recover p99", "svc iops", "svc share", "vrate", "errors", "retries", "retry split")
	for _, r := range rows {
		vr := "-"
		if r.VrateStorm > 0 {
			vr = fmt.Sprintf("%.0f%%", r.VrateStorm*100)
		}
		fmt.Fprintf(&b, "%-10s %10.2fms %10.2fms %10.2fms %10.0f %9.0f%% %10s %8d %8d %5d/%d\n",
			r.Mechanism, r.HealthyP99, r.StormP99, r.RecoverP99, r.SvcIOPS, r.SvcShare*100,
			vr, r.Errors, r.Retries, r.SvcRetries, r.BulkRetries)
	}
	return b.String()
}
