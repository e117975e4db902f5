package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// ExtDegradation is an extension experiment beyond the paper's figures,
// motivated by its §5 lesson ("SSDs with more consistent behaviors ...
// could be effectively utilized"): a latency-sensitive load-shedder shares
// the device with a bulk reader while the SSD suffers a mid-run 3x
// degradation episode (thermal throttle / housekeeping). Without control,
// the episode blows the service's latency through its target; with IOCost,
// vrate absorbs the capability loss — total throughput drops, but the p95
// of the latency-sensitive workload stays in band and its fair share is
// preserved.

// ExtDegradationRow is one mechanism's outcome.
type ExtDegradationRow struct {
	Mechanism string
	// P95 of the latency-sensitive workload in each phase (ms).
	HealthyP95  float64
	DegradedP95 float64
	RecoverP95  float64
	// VrateDuring is the mean vrate during the episode (iocost only).
	VrateDuring float64
	// SensitiveShare is the latency-sensitive workload's fraction of
	// completions during the episode.
	SensitiveShare float64
}

// ExtDegradationOptions tunes the run.
type ExtDegradationOptions struct {
	Phase sim.Time // per-phase duration; 0 selects 5s
}

// ExtDegradation runs the episode under "none" and "iocost".
func ExtDegradation(opts ExtDegradationOptions) []ExtDegradationRow {
	phase := opts.Phase
	if phase == 0 {
		phase = 5 * sim.Second
	}
	var rows []ExtDegradationRow
	for _, kind := range []string{KindNone, KindIOCost} {
		spec := device.OlderGenSSD()
		qos := core.HandTunedSSD(spec)
		// A 3x capability loss needs vrate to reach ~33%; widen the band
		// below the usual tuned floor so the controller can follow the
		// device down.
		qos.VrateMin = 0.15
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(spec),
			Controller: kind,
			IOCostCfg: core.Config{
				Model: core.MustLinearModel(core.IdealSSDParams(spec)),
				QoS:   qos,
			},
			Seed: 0xdeb,
		})
		ssd := m.Dev.(*device.SSD)

		svc := m.Workload.NewChild("svc", 800)
		bulk := m.Workload.NewChild("bulk", 100)
		shed := workload.NewLoadShedder(m.Q, workload.LoadShedderConfig{
			CG: svc, Op: bio.Read, Pattern: workload.Random, Size: 4096,
			Target: 300 * sim.Microsecond, Seed: 1,
		})
		sat := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: bulk, Op: bio.Read, Pattern: workload.Random, Size: 64 << 10,
			Depth: 24, Region: 100 << 30, Seed: 2,
		})
		shed.Start()
		sat.Start()

		var vrateSum float64
		var vrateN int

		p95 := func(from, to sim.Time) float64 {
			shed.Stats.Latency.Reset()
			m.Run(to)
			return float64(shed.Stats.Latency.Quantile(0.95)) / 1e6
		}

		row := ExtDegradationRow{Mechanism: kind}
		row.HealthyP95 = p95(0, phase)

		// The episode: 3x service degradation for one phase.
		ssd.InjectDegradation(3, phase)
		if m.IOCost != nil {
			m.Eng.NewTicker(100*sim.Millisecond, func() {
				if ssd.Degraded() {
					vrateSum += m.IOCost.Vrate()
					vrateN++
				}
			})
		}
		shed.Stats.TakeWindow()
		sat.Stats.TakeWindow()
		// Let the controller converge for the first half of the episode,
		// then measure its steady state.
		m.Run(phase + phase/2)
		row.DegradedP95 = p95(phase+phase/2, 2*phase)
		sd, bd := shed.Stats.TakeWindow(), sat.Stats.TakeWindow()
		if sd+bd > 0 {
			row.SensitiveShare = float64(sd) / float64(sd+bd)
		}
		if vrateN > 0 {
			row.VrateDuring = vrateSum / float64(vrateN)
		}

		// Likewise skip the recovery ramp before measuring.
		m.Run(2*phase + phase/2)
		row.RecoverP95 = p95(2*phase+phase/2, 3*phase)
		rows = append(rows, row)
	}
	return rows
}

// FormatExtDegradation renders the comparison.
func FormatExtDegradation(rows []ExtDegradationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %14s %10s\n",
		"mechanism", "healthy p95", "degraded p95", "recover p95", "svc share", "vrate")
	for _, r := range rows {
		vr := "-"
		if r.VrateDuring > 0 {
			vr = fmt.Sprintf("%.0f%%", r.VrateDuring*100)
		}
		fmt.Fprintf(&b, "%-10s %10.2fms %10.2fms %10.2fms %13.0f%% %10s\n",
			r.Mechanism, r.HealthyP95, r.DegradedP95, r.RecoverP95, r.SensitiveShare*100, vr)
	}
	return b.String()
}
