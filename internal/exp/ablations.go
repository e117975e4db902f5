package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// The ablations quantify the design choices DESIGN.md calls out: budget
// donation, the debt mechanism (covered by Figure 15's modified configs),
// planning-period length, and the cost model's feature set.

// AblationDonationResult compares utilization with and without budget
// donation when the high-weight workload leaves most of its share unused.
type AblationDonationResult struct {
	WithDonationIOPS    float64
	WithoutDonationIOPS float64
	// Gain is the low-priority throughput multiplier donation provides.
	Gain float64
}

// AblationDonation runs a think-time high-priority workload against a
// saturating low-priority one with donation on and off.
func AblationDonation(measure sim.Time) AblationDonationResult {
	if measure == 0 {
		measure = 4 * sim.Second
	}
	run := func(disable bool) float64 {
		spec := device.OlderGenSSD()
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(spec),
			Controller: KindIOCost,
			IOCostCfg: core.Config{
				Model:           core.MustLinearModel(core.IdealSSDParams(spec)),
				QoS:             core.HandTunedSSD(spec),
				DisableDonation: disable,
			},
			Seed: 0xab1,
		})
		hi := m.Workload.NewChild("hi", 800)
		lo := m.Workload.NewChild("lo", 100)
		wHi := workload.NewThinkTime(m.Q, workload.ThinkTimeConfig{
			CG: hi, Op: bio.Read, Pattern: workload.Random, Size: 4096,
			Think: 300 * sim.Microsecond, Seed: 1,
		})
		wLo := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: lo, Op: bio.Read, Pattern: workload.Random, Size: 4096,
			Depth: 32, Region: 40 << 30, Seed: 2,
		})
		wHi.Start()
		wLo.Start()
		m.Run(measure / 2)
		wLo.Stats.TakeWindow()
		m.Run(measure/2 + measure)
		return float64(wLo.Stats.TakeWindow()) / measure.Seconds()
	}
	res := fanout.ForEach(2, func(i int) float64 { return run(i == 1) })
	with, without := res[0], res[1]
	gain := 0.0
	if without > 0 {
		gain = with / without
	}
	return AblationDonationResult{WithDonationIOPS: with, WithoutDonationIOPS: without, Gain: gain}
}

// String renders the result.
func (r AblationDonationResult) String() string {
	return fmt.Sprintf("lo IOPS with donation %.0f, without %.0f (%.2fx)",
		r.WithDonationIOPS, r.WithoutDonationIOPS, r.Gain)
}

// AblationPeriodRow is fairness and latency at one planning-period length.
type AblationPeriodRow struct {
	Period   sim.Time
	Ratio    float64 // achieved hi:lo (target 2.0)
	HiP50    sim.Time
	Shortfal float64 // |ratio-2|/2
}

// AblationPeriod sweeps the planning-period length, measuring how well the
// 2:1 objective holds; too-long periods slow donation/vrate feedback,
// too-short ones starve the statistics.
func AblationPeriod(measure sim.Time) []AblationPeriodRow {
	if measure == 0 {
		measure = 4 * sim.Second
	}
	periods := []sim.Time{1 * sim.Millisecond, 5 * sim.Millisecond, 25 * sim.Millisecond, 100 * sim.Millisecond}
	return fanout.ForEach(len(periods), func(pi int) AblationPeriodRow {
		period := periods[pi]
		spec := device.OlderGenSSD()
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(spec),
			Controller: KindIOCost,
			IOCostCfg: core.Config{
				Model:  core.MustLinearModel(core.IdealSSDParams(spec)),
				QoS:    core.HandTunedSSD(spec),
				Period: period,
			},
			Seed: 0xab2,
		})
		hi := m.Workload.NewChild("hi", 200)
		lo := m.Workload.NewChild("lo", 100)
		mk := func(cg *cgroup.Node, base int64, seed uint64) *workload.Saturator {
			w := workload.NewSaturator(m.Q, workload.SaturatorConfig{
				CG: cg, Op: bio.Read, Pattern: workload.Random, Size: 4096,
				Depth: 32, Region: base, Seed: seed,
			})
			w.Start()
			return w
		}
		wHi, wLo := mk(hi, 0, 1), mk(lo, 40<<30, 2)
		m.Run(measure / 2)
		wHi.Stats.TakeWindow()
		wLo.Stats.TakeWindow()
		m.Run(measure/2 + measure)
		nHi, nLo := wHi.Stats.TakeWindow(), wLo.Stats.TakeWindow()
		ratio := 0.0
		if nLo > 0 {
			ratio = float64(nHi) / float64(nLo)
		}
		return AblationPeriodRow{
			Period: period, Ratio: ratio,
			HiP50:    sim.Time(wHi.Stats.Latency.Quantile(0.5)),
			Shortfal: abs(ratio-2) / 2,
		}
	})
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// AblationCostModelRow measures fairness under a mixed rand/seq workload
// pair for different cost-model fidelities.
type AblationCostModelRow struct {
	Model string
	// OccRatio is the achieved device-occupancy ratio hi:lo (target 2).
	// Occupancy is estimated with the full model regardless of which
	// model the controller used.
	OccRatio float64
}

// AblationCostModel compares the full linear model against an IOPS-only
// model (no size/seq awareness) and a bytes-only model on a mixed workload:
// the high-weight cgroup streams 128KiB sequential reads while the
// low-weight one issues 4KiB random reads.
func AblationCostModel(measure sim.Time) []AblationCostModelRow {
	if measure == 0 {
		measure = 4 * sim.Second
	}
	spec := device.OlderGenSSD()
	full := core.MustLinearModel(core.IdealSSDParams(spec))

	models := []struct {
		name string
		m    core.Model
	}{
		{"full-linear", full},
		{"iops-only", core.ModelFunc(func(op bio.Op, size int64, seq bool) float64 {
			return full.Cost(op, 4096, false) // every IO costs like a 4k random op
		})},
		{"bytes-only", core.ModelFunc(func(op bio.Op, size int64, seq bool) float64 {
			return full.SizeCostRate(op) * float64(size)
		})},
	}

	return fanout.ForEach(len(models), func(mi int) AblationCostModelRow {
		mc := models[mi]
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(spec),
			Controller: KindIOCost,
			IOCostCfg: core.Config{
				Model: mc.m,
				QoS:   core.HandTunedSSD(spec),
			},
			Seed: 0xab3,
		})
		hi := m.Workload.NewChild("hi", 200)
		lo := m.Workload.NewChild("lo", 100)
		wHi := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: hi, Op: bio.Read, Pattern: workload.Sequential, Size: 128 << 10,
			Depth: 16, Seed: 1,
		})
		wLo := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: lo, Op: bio.Read, Pattern: workload.Random, Size: 4096,
			Depth: 32, Region: 40 << 30, Seed: 2,
		})
		wHi.Start()
		wLo.Start()
		m.Run(measure / 2)
		wHi.Stats.TakeWindow()
		wLo.Stats.TakeWindow()
		m.Run(measure/2 + measure)
		nHi, nLo := wHi.Stats.TakeWindow(), wLo.Stats.TakeWindow()

		// Estimate true occupancy with the full model.
		occHi := float64(nHi) * full.Cost(bio.Read, 128<<10, true)
		occLo := float64(nLo) * full.Cost(bio.Read, 4096, false)
		ratio := 0.0
		if occLo > 0 {
			ratio = occHi / occLo
		}
		return AblationCostModelRow{Model: mc.name, OccRatio: ratio}
	})
}

// FormatAblations renders all ablation results.
func FormatAblations(don AblationDonationResult, periods []AblationPeriodRow, models []AblationCostModelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "donation: %v\n", don)
	fmt.Fprintf(&b, "merging:  %v\n", AblationMerging(0))
	fmt.Fprintf(&b, "period sweep:\n")
	for _, r := range periods {
		fmt.Fprintf(&b, "  period=%-8v ratio=%.2f hi-p50=%v\n", r.Period, r.Ratio, r.HiP50)
	}
	fmt.Fprintf(&b, "cost model sweep (target occupancy ratio 2.0):\n")
	for _, r := range models {
		fmt.Fprintf(&b, "  %-12s occ-ratio=%.2f\n", r.Model, r.OccRatio)
	}
	return b.String()
}

// AblationMergingResult compares strictly interleaved sequential-stream
// throughput on a readahead-less spinning disk with and without
// block-layer request merging.
type AblationMergingResult struct {
	MergedIOPS   float64
	UnmergedIOPS float64
	Gain         float64
}

// AblationMerging submits two sequential 4KiB streams in strict alternation
// (A1 B1 A2 B2 ...) to a spinning disk whose drive-side readahead is
// disabled, with device-queue merging on and off. Unmerged, every request
// seeks between the two streams' regions; merged, each stream's contiguous
// requests coalesce into large transfers that pay one seek each — the
// mechanism that makes buffered sequential IO behave so differently from
// direct IO on rotational media.
func AblationMerging(measure sim.Time) AblationMergingResult {
	if measure == 0 {
		measure = 10 * sim.Second
	}
	const ioSize = 4096
	run := func(merge bool) float64 {
		spec := device.EvalHDD()
		spec.ReadaheadBytes = ioSize // drive-side readahead off
		spec.Merge = merge
		m := MustNewMachine(MachineConfig{
			Device:     DeviceChoice{HDD: &spec},
			Controller: KindNone,
			Seed:       0xab4,
		})
		a := m.Workload.NewChild("a", 100)
		b := m.Workload.NewChild("b", 100)
		// Open-loop strict alternation, offered well above the unmerged
		// disk's capability so the device queue always has both streams
		// to merge within.
		var offA, offB int64 = ioSize, 1 << 40
		i := 0
		m.Eng.NewTicker(100*sim.Microsecond, func() {
			if m.Q.InFlight() > 512 {
				return // bound the backlog
			}
			cg, off := a, &offA
			if i%2 == 1 {
				cg, off = b, &offB
			}
			i++
			m.Q.Submit(&bio.Bio{Op: bio.Read, Off: *off, Size: ioSize, CG: cg})
			*off += ioSize
		})
		m.Run(measure)
		return float64(m.Q.Completions()) / measure.Seconds()
	}
	res := fanout.ForEach(2, func(i int) float64 { return run(i == 0) })
	merged, unmerged := res[0], res[1]
	gain := 0.0
	if unmerged > 0 {
		gain = merged / unmerged
	}
	return AblationMergingResult{MergedIOPS: merged, UnmergedIOPS: unmerged, Gain: gain}
}

// String renders the result.
func (r AblationMergingResult) String() string {
	return fmt.Sprintf("interleaved seq on HDD: merged %.0f IOPS, unmerged %.0f IOPS (%.1fx)",
		r.MergedIOPS, r.UnmergedIOPS, r.Gain)
}

// WeightRatioRow is proportional-control fidelity at one configured ratio.
type WeightRatioRow struct {
	Configured float64
	Achieved   float64
	// Error is |achieved-configured|/configured.
	Error float64
}

// SweepWeightRatios measures how faithfully IOCost converts configured
// weight ratios into IOPS ratios across 1:1 to 16:1 — proportional control
// has to hold across the whole configuration range administrators actually
// use, not just the 2:1 of Figure 10.
func SweepWeightRatios(measure sim.Time) []WeightRatioRow {
	if measure == 0 {
		measure = 4 * sim.Second
	}
	ratios := []float64{1, 2, 4, 8, 16}
	return fanout.ForEach(len(ratios), func(ri int) WeightRatioRow {
		ratio := ratios[ri]
		spec := device.OlderGenSSD()
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(spec),
			Controller: KindIOCost,
			Seed:       0xab5,
		})
		hi := m.Workload.NewChild("hi", 100*ratio)
		lo := m.Workload.NewChild("lo", 100)
		mk := func(cg *cgroup.Node, base int64, seed uint64) *workload.Saturator {
			w := workload.NewSaturator(m.Q, workload.SaturatorConfig{
				CG: cg, Op: bio.Read, Pattern: workload.Random, Size: 4096,
				Depth: 48, Region: base, Seed: seed,
			})
			w.Start()
			return w
		}
		wHi, wLo := mk(hi, 0, 1), mk(lo, 40<<30, 2)
		m.Run(measure / 2)
		wHi.Stats.TakeWindow()
		wLo.Stats.TakeWindow()
		m.Run(measure/2 + measure)
		nHi, nLo := wHi.Stats.TakeWindow(), wLo.Stats.TakeWindow()
		achieved := 0.0
		if nLo > 0 {
			achieved = float64(nHi) / float64(nLo)
		}
		return WeightRatioRow{
			Configured: ratio,
			Achieved:   achieved,
			Error:      abs(achieved-ratio) / ratio,
		}
	})
}

// FormatWeightRatios renders the sweep.
func FormatWeightRatios(rows []WeightRatioRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %8s\n", "configured", "achieved", "error")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9.0f:1 %9.2f:1 %7.1f%%\n", r.Configured, r.Achieved, r.Error*100)
	}
	return b.String()
}
