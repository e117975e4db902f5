package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// ---------------------------------------------------------------- Figure 10

// Fig10Row is one mechanism's proportional-control outcome: two
// latency-sensitive load-shedding workloads, configured 2:1.
type Fig10Row struct {
	Mechanism string
	HiIOPS    float64
	LoIOPS    float64
	Ratio     float64
	HiP50     sim.Time
	LoP50     sim.Time
	// HiStall/LoStall are PSI some-pressure over the measure window: the
	// percentage of time each cgroup had IO submitted but not yet at the
	// device. Proportional mechanisms show pressure concentrated on the
	// low-weight cgroup.
	HiStall float64
	LoStall float64
}

// Fig10Options tunes the run.
type Fig10Options struct {
	Warmup  sim.Time // 0 selects 2s
	Measure sim.Time // 0 selects 6s
}

func (o Fig10Options) defaults() Fig10Options {
	if o.Warmup == 0 {
		o.Warmup = 2 * sim.Second
	}
	if o.Measure == 0 {
		o.Measure = 6 * sim.Second
	}
	return o
}

// configureForTwoToOne applies each mechanism's best-effort 2:1
// configuration, as the paper describes: weights for bfq/iocost, absolute
// limits for blk-throttle, and tuned latency targets for iolatency (which
// has no proportional interface).
func configureForTwoToOne(m *Machine, hi, lo *cgroup.Node) {
	switch c := m.Ctl.(type) {
	case *ctl.Throttle:
		// Split the device's measured random-read capability 2:1.
		spec := device.OlderGenSSD()
		total := float64(spec.Parallelism) / spec.RandReadNS * 1e9 * 0.95
		c.SetLimits(hi, ctl.ThrottleLimits{ReadIOPS: total * 2 / 3})
		c.SetLimits(lo, ctl.ThrottleLimits{ReadIOPS: total * 1 / 3})
	case *ctl.IOLatency:
		// The best configuration we found tuning per-cgroup targets
		// toward a 2:1 split (there is no way to express proportions):
		// protecting hi tightly enough to matter inevitably throttles
		// lo far below its half-share, just as the paper observed.
		c.SetTarget(hi, 120*sim.Microsecond)
		c.SetTarget(lo, 800*sim.Microsecond)
	}
}

// Fig10 runs the proportional-control experiment on the older-generation
// SSD: two load-shedding random-read workloads (p50 target 200us), the
// high-priority one entitled to twice the IO of the low-priority one.
func Fig10(opts Fig10Options) []Fig10Row {
	opts = opts.defaults()
	kinds := CgroupKinds()
	return fanout.ForEach(len(kinds), func(i int) Fig10Row {
		kind := kinds[i]
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(device.OlderGenSSD()),
			Controller: kind,
			Seed:       0x10,
			Pressure:   true,
		})
		hi := m.Workload.NewChild("hi", 200)
		lo := m.Workload.NewChild("lo", 100)
		configureForTwoToOne(m, hi, lo)

		mkShed := func(cg *cgroup.Node, base int64, seed uint64) *workload.LoadShedder {
			w := workload.NewLoadShedder(m.Q, workload.LoadShedderConfig{
				CG: cg, Op: bio.Read, Pattern: workload.Random, Size: 4096,
				Target: 200 * sim.Microsecond, Region: base, Seed: seed,
			})
			w.Start()
			return w
		}
		wHi := mkShed(hi, 0, 1)
		wLo := mkShed(lo, 40<<30, 2)

		m.Run(opts.Warmup)
		wHi.Stats.TakeWindow()
		wLo.Stats.TakeWindow()
		hiP50Base, loP50Base := wHi.Stats.Latency, wLo.Stats.Latency
		hiP50Base.Reset()
		loP50Base.Reset()
		// Snapshot stall integrals at the window edges; the delta over the
		// measure interval is each cgroup's some-pressure percentage.
		stallAt := func(cg *cgroup.Node, now sim.Time) sim.Time {
			if p := m.Pressure.CGroup(cg); p != nil {
				return p.Some(now).Total
			}
			return 0
		}
		hiStall0 := stallAt(hi, opts.Warmup)
		loStall0 := stallAt(lo, opts.Warmup)
		m.Run(opts.Warmup + opts.Measure)
		end := opts.Warmup + opts.Measure

		nHi := float64(wHi.Stats.TakeWindow()) / opts.Measure.Seconds()
		nLo := float64(wLo.Stats.TakeWindow()) / opts.Measure.Seconds()
		ratio := 0.0
		if nLo > 0 {
			ratio = nHi / nLo
		}
		return Fig10Row{
			Mechanism: kind,
			HiIOPS:    nHi,
			LoIOPS:    nLo,
			Ratio:     ratio,
			HiP50:     sim.Time(wHi.Stats.Latency.Quantile(0.5)),
			LoP50:     sim.Time(wLo.Stats.Latency.Quantile(0.5)),
			HiStall:   100 * float64(stallAt(hi, end)-hiStall0) / float64(opts.Measure),
			LoStall:   100 * float64(stallAt(lo, end)-loStall0) / float64(opts.Measure),
		}
	})
}

// FormatFig10 renders the proportional-control table.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %10s %10s %9s %9s\n",
		"mechanism", "hi IOPS", "lo IOPS", "ratio", "hi p50", "lo p50", "hi stall", "lo stall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.0f %10.0f %8.2f %10v %10v %8.1f%% %8.1f%%\n",
			r.Mechanism, r.HiIOPS, r.LoIOPS, r.Ratio, r.HiP50, r.LoP50, r.HiStall, r.LoStall)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 11

// Fig11Row is one mechanism's work-conservation outcome.
type Fig11Row struct {
	Mechanism   string
	HiIOPS      float64
	HiMeanLat   sim.Time
	HiStddevLat sim.Time
	LoIOPS      float64
}

// Fig11 runs the work-conservation experiment: the high-priority workload
// issues one 4KiB random read at a time with 100us think time (low
// throughput), and the low-priority load-shedder should soak up all
// remaining capacity.
func Fig11(opts Fig10Options) []Fig11Row {
	opts = opts.defaults()
	kinds := CgroupKinds()
	return fanout.ForEach(len(kinds), func(i int) Fig11Row {
		kind := kinds[i]
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(device.OlderGenSSD()),
			Controller: kind,
			Seed:       0x11,
		})
		hi := m.Workload.NewChild("hi", 200)
		lo := m.Workload.NewChild("lo", 100)
		configureForTwoToOne(m, hi, lo)

		wHi := workload.NewThinkTime(m.Q, workload.ThinkTimeConfig{
			CG: hi, Op: bio.Read, Pattern: workload.Random, Size: 4096,
			Think: 100 * sim.Microsecond, Seed: 1,
		})
		wLo := workload.NewLoadShedder(m.Q, workload.LoadShedderConfig{
			CG: lo, Op: bio.Read, Pattern: workload.Random, Size: 4096,
			Target: 200 * sim.Microsecond, Region: 40 << 30, Seed: 2,
		})
		wHi.Start()
		wLo.Start()

		m.Run(opts.Warmup)
		wHi.Stats.TakeWindow()
		wLo.Stats.TakeWindow()
		wHi.Stats.Latency.Reset()
		m.Run(opts.Warmup + opts.Measure)

		return Fig11Row{
			Mechanism:   kind,
			HiIOPS:      float64(wHi.Stats.TakeWindow()) / opts.Measure.Seconds(),
			HiMeanLat:   sim.Time(wHi.Stats.Latency.Mean()),
			HiStddevLat: sim.Time(wHi.Stats.Latency.Stddev()),
			LoIOPS:      float64(wLo.Stats.TakeWindow()) / opts.Measure.Seconds(),
		}
	})
}

// FormatFig11 renders the work-conservation table.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %12s %12s %10s\n", "mechanism", "hi IOPS", "hi mean lat", "hi lat sd", "lo IOPS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.0f %12v %12v %10.0f\n",
			r.Mechanism, r.HiIOPS, r.HiMeanLat, r.HiStddevLat, r.LoIOPS)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 12

// Fig12Row is one (mechanism, scenario) outcome on the spinning disk,
// normalized to each pattern's solo peak throughput.
type Fig12Row struct {
	Mechanism string
	Scenario  string // "rand/rand", "rand/seq", "seq/seq" (hi/lo)
	HiNorm    float64
	LoNorm    float64
	Ratio     float64 // HiNorm / LoNorm
}

// Fig12Options tunes the spinning-disk runs.
type Fig12Options struct {
	Measure sim.Time // 0 selects 30s (HDD random IO is slow)
}

// Fig12 runs the spinning-disk fairness experiment: 2:1 weights with every
// combination of random and sequential 4KiB readers. Throughput is
// normalized to the disk's solo peak for that pattern, so fair occupancy
// shows as HiNorm:LoNorm == 2.
func Fig12(opts Fig12Options) []Fig12Row {
	measure := opts.Measure
	if measure == 0 {
		measure = 30 * sim.Second
	}
	warm := measure / 3

	pats := []workload.Pattern{workload.Random, workload.Sequential}
	peaks := fanout.ForEach(len(pats), func(i int) float64 {
		m := MustNewMachine(MachineConfig{
			Device:     DeviceChoice{HDD: hddSpec()},
			Controller: KindNone,
			Seed:       0x12,
		})
		cg := m.Workload.NewChild("solo", 100)
		w := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: cg, Op: bio.Read, Pattern: pats[i], Size: 4096, Depth: 16, Seed: 3,
		})
		w.Start()
		m.Run(warm)
		w.Stats.TakeWindow()
		m.Run(warm + measure)
		return float64(w.Stats.TakeWindow()) / measure.Seconds()
	})
	peak := map[workload.Pattern]float64{pats[0]: peaks[0], pats[1]: peaks[1]}

	scenarios := []struct {
		name   string
		hi, lo workload.Pattern
	}{
		{"rand/rand", workload.Random, workload.Random},
		{"rand/seq", workload.Random, workload.Sequential},
		{"seq/seq", workload.Sequential, workload.Sequential},
	}

	// Flatten the mechanism × scenario grid into independent cells; index
	// order matches the original nested-loop order.
	kinds := []string{KindMQDL, KindBFQ, KindIOCost}
	return fanout.ForEach(len(kinds)*len(scenarios), func(ci int) Fig12Row {
		kind := kinds[ci/len(scenarios)]
		sc := scenarios[ci%len(scenarios)]
		m := MustNewMachine(MachineConfig{
			Device:     DeviceChoice{HDD: hddSpec()},
			Controller: kind,
			Seed:       0x12,
		})
		hi := m.Workload.NewChild("hi", 200)
		lo := m.Workload.NewChild("lo", 100)
		wHi := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: hi, Op: bio.Read, Pattern: sc.hi, Size: 4096, Depth: 16, Seed: 1,
		})
		wLo := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: lo, Op: bio.Read, Pattern: sc.lo, Size: 4096, Depth: 16,
			Region: 1 << 40, Seed: 2,
		})
		wHi.Start()
		wLo.Start()
		m.Run(warm)
		wHi.Stats.TakeWindow()
		wLo.Stats.TakeWindow()
		m.Run(warm + measure)

		hiNorm := float64(wHi.Stats.TakeWindow()) / measure.Seconds() / peak[sc.hi]
		loNorm := float64(wLo.Stats.TakeWindow()) / measure.Seconds() / peak[sc.lo]
		ratio := 0.0
		if loNorm > 0 {
			ratio = hiNorm / loNorm
		}
		return Fig12Row{
			Mechanism: kind, Scenario: sc.name,
			HiNorm: hiNorm, LoNorm: loNorm, Ratio: ratio,
		}
	})
}

func hddSpec() *device.HDDSpec {
	s := device.EvalHDD()
	return &s
}

// FormatFig12 renders the spinning-disk fairness table.
func FormatFig12(rows []Fig12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-10s %10s %10s %8s\n", "mechanism", "scenario", "hi norm", "lo norm", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-10s %10.3f %10.3f %8.2f\n",
			r.Mechanism, r.Scenario, r.HiNorm, r.LoNorm, r.Ratio)
	}
	return b.String()
}
