package exp

import (
	"fmt"
	"strings"
	"sync"

	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/mem"
	"github.com/iocost-sim/iocost/internal/pidctl"
	"github.com/iocost-sim/iocost/internal/rcb"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
	"github.com/iocost-sim/iocost/internal/workload"
)

// memScenarioConfig shapes the Figure 14/17 stacked memory-leak scenario.
type memScenarioConfig struct {
	dev        DeviceChoice
	controller string
	// webRate is the web-server proxy's offered load in req/s.
	webRate float64
	// leakRate is the leaker's allocation rate in bytes/s.
	leakRate float64
	baseline sim.Time // measure healthy RPS for this long
	leak     sim.Time // leak runs (until OOM) for this long
	seed     uint64
}

// memScenarioResult is the outcome of one run.
type memScenarioResult struct {
	BaselineRPS float64
	MinRPS      float64 // worst 1s window during the leak
	OOMKills    uint64
	Retention   float64 // MinRPS / BaselineRPS
}

// runMemScenario stacks a latency-sensitive service (the web-server proxy)
// against a memory leaker in the system slice and measures throughput
// retention, the metric of Figures 14 and 17.
func runMemScenario(cfg memScenarioConfig) memScenarioResult {
	const capacity = 2 << 30
	m := MustNewMachine(MachineConfig{
		Device:     cfg.dev,
		Controller: cfg.controller,
		Mem: &mem.Config{
			Capacity: capacity,
			// Small enough that a fast leak exhausts swap and draws the
			// OOM killer within the experiment window, as in the paper.
			SwapCapacity: 3 << 30,
			Seed:         cfg.seed,
		},
		Seed: cfg.seed,
	})
	web := m.Workload.NewChild("web", 800)
	leakCG := m.System.NewChild("leaker", 50)
	m.Mem.SetKillable(leakCG, true)
	// The web server has memory.low protection for most, not all, of its
	// working set, as production configurations do.
	const ws = 1200 << 20
	m.Mem.SetProtection(web, ws*3/4)

	if iol, ok := m.Ctl.(*ctl.IOLatency); ok {
		iol.SetTarget(web, 5*sim.Millisecond)
	}

	bench := rcb.New(m.Q, m.Mem, rcb.Config{
		CG:          web,
		WorkingSet:  ws,
		TouchPerReq: 1 << 20,
		ReadsPerReq: 3,
		Rate:        cfg.webRate,
		CPUTime:     1 * sim.Millisecond,
		// A bounded worker pool, as real services have: latency blow-ups
		// translate into delivered-RPS loss instead of hiding in queues.
		MaxConcurrency: 8,
		Seed:           cfg.seed,
	})
	bench.Start()

	// Healthy baseline.
	m.Run(cfg.baseline)
	baseRPS := rcb.RPS(bench.Completed.TakeWindow(), cfg.baseline)

	// Leak until the OOM killer fires (or the window ends), tracking the
	// worst 1s RPS window.
	leaker := workload.NewLeaker(m.Mem, leakCG, cfg.leakRate)
	leaker.Start()
	minRPS := baseRPS
	m.Eng.NewTicker(sim.Second, func() {
		r := rcb.RPS(bench.Completed.TakeWindow(), sim.Second)
		if r < minRPS {
			minRPS = r
		}
	})
	m.Run(cfg.baseline + cfg.leak)
	leaker.Stop()
	bench.Stop()

	ret := 0.0
	if baseRPS > 0 {
		ret = minRPS / baseRPS
	}
	return memScenarioResult{
		BaselineRPS: baseRPS,
		MinRPS:      minRPS,
		OOMKills:    m.Mem.OOMKills,
		Retention:   ret,
	}
}

// ---------------------------------------------------------------- Figure 14

// Fig14Row is one (device, mechanism) outcome.
type Fig14Row struct {
	Device    string
	Mechanism string
	memScenarioResult
}

// Fig14Options tunes the experiment.
type Fig14Options struct {
	Baseline sim.Time // 0 selects 5s
	Leak     sim.Time // 0 selects 20s
}

// Fig14 measures web-server throughput retention while a memory leak in
// the system slice drives the machine into reclaim, on both commercial
// SSDs, across mq-deadline, bfq, iolatency and iocost.
func Fig14(opts Fig14Options) []Fig14Row {
	if opts.Baseline == 0 {
		opts.Baseline = 5 * sim.Second
	}
	if opts.Leak == 0 {
		opts.Leak = 20 * sim.Second
	}
	devices := []struct {
		name string
		spec device.SSDSpec
	}{
		{"older-gen", device.OlderGenSSD()},
		{"newer-gen", device.NewerGenSSD()},
	}
	kinds := []string{KindMQDL, KindBFQ, KindIOLatency, KindIOCost}
	return fanout.ForEach(len(devices)*len(kinds), func(ci int) Fig14Row {
		d := devices[ci/len(kinds)]
		kind := kinds[ci%len(kinds)]
		res := runMemScenario(memScenarioConfig{
			dev:        ssdChoice(d.spec),
			controller: kind,
			webRate:    900,
			leakRate:   400e6,
			baseline:   opts.Baseline,
			leak:       opts.Leak,
			seed:       0x14,
		})
		return Fig14Row{Device: d.name, Mechanism: kind, memScenarioResult: res}
	})
}

// FormatFig14 renders the retention table.
func FormatFig14(rows []Fig14Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-14s %10s %10s %10s %5s\n", "device", "mechanism", "base RPS", "min RPS", "retention", "OOMs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-14s %10.0f %10.0f %9.0f%% %5d\n",
			r.Device, r.Mechanism, r.BaselineRPS, r.MinRPS, r.Retention*100, r.OOMKills)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 17

// Fig17Row is the remote-storage protection result for one cloud volume.
type Fig17Row struct {
	Device string
	memScenarioResult
}

// Fig17 repeats the stacked memory-leak experiment with IOCost inside a
// cloud VM against the four remote volume types.
func Fig17(opts Fig14Options) []Fig17Row {
	if opts.Baseline == 0 {
		opts.Baseline = 5 * sim.Second
	}
	if opts.Leak == 0 {
		opts.Leak = 20 * sim.Second
	}
	vols := []device.RemoteSpec{device.EBSgp3(), device.EBSio2(), device.GCPBalanced(), device.GCPSSD()}
	return fanout.ForEach(len(vols), func(i int) Fig17Row {
		v := vols[i]
		// Scale offered load and leak rate to the volume's capability
		// so every volume runs meaningfully loaded.
		webRate, leakRate := 120.0, 60e6
		if v.IOPS >= 30000 {
			webRate, leakRate = 300, 200e6
		}
		res := runMemScenario(memScenarioConfig{
			dev:        DeviceChoice{Remote: &v},
			controller: KindIOCost,
			webRate:    webRate,
			leakRate:   leakRate,
			baseline:   opts.Baseline,
			leak:       opts.Leak,
			seed:       0x17,
		})
		return Fig17Row{Device: v.Name, memScenarioResult: res}
	})
}

// FormatFig17 renders the remote-storage table.
func FormatFig17(rows []Fig17Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %5s\n", "volume", "base RPS", "min RPS", "retention", "OOMs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %10.0f %10.0f %9.0f%% %5d\n",
			r.Device, r.BaselineRPS, r.MinRPS, r.Retention*100, r.OOMKills)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 15

// Fig15Row is one configuration's ramp-up time in the overcommitted
// environment.
type Fig15Row struct {
	Config   string
	Stress   bool
	RampTime sim.Time
	Reached  bool
}

// Fig15Options tunes the ramp experiment.
type Fig15Options struct {
	// Limit caps the simulated ramp duration; 0 selects 120s.
	Limit sim.Time
}

// Fig15 measures how long ResourceControlBench takes to scale from 40% to
// 80% of its peak load while p95 latency stays under 75ms, optionally
// sharing the machine with a stress-style memory hog. Four configurations:
// bfq, production iocost, iocost charging swap to root (never throttled),
// and iocost throttling swap at the originator (priority inversion).
func Fig15(opts Fig15Options) []Fig15Row {
	limit := opts.Limit
	if limit == 0 {
		limit = 120 * sim.Second
	}
	type cfg struct {
		name string
		kind string
		ioc  core.Config
	}
	spec := device.OlderGenSSD()
	base := core.Config{
		Model: core.MustLinearModel(core.IdealSSDParams(spec)),
		QoS:   core.HandTunedSSD(spec),
	}
	withFlag := func(mod func(*core.Config)) core.Config {
		c := base
		mod(&c)
		return c
	}
	configs := []cfg{
		{"bfq", KindBFQ, core.Config{}},
		{"iocost", KindIOCost, base},
		{"iocost-swap-root", KindIOCost, withFlag(func(c *core.Config) { c.DebtChargeRoot = true })},
		{"iocost-no-debt", KindIOCost, withFlag(func(c *core.Config) { c.DisableDebt = true })},
	}

	return fanout.ForEach(len(configs)*2, func(ci int) Fig15Row {
		c := configs[ci/2]
		stress := ci%2 == 1
		t, ok := runRamp(c.kind, c.ioc, spec, stress, limit)
		return Fig15Row{Config: c.name, Stress: stress, RampTime: t, Reached: ok}
	})
}

// rampTrace, when set by tests, observes each PID tick; lastBench exposes
// the most recent ramp's bench for stage-latency diagnostics. lastBench is
// mutex-guarded because Fig15 cells may run concurrently under ForEach.
var (
	rampTrace   func(p95, smoothed, load float64)
	lastBenchMu sync.Mutex
	lastBench   *rcb.Bench
)

func runRamp(kind string, ioc core.Config, spec device.SSDSpec, stress bool, limit sim.Time) (sim.Time, bool) {
	const capacity = 2 << 30
	m := MustNewMachine(MachineConfig{
		Device:     ssdChoice(spec),
		Controller: kind,
		IOCostCfg:  ioc,
		Mem: &mem.Config{
			Capacity:     capacity,
			SwapCapacity: 8 << 30,
			Seed:         0x15,
		},
		Seed: 0x15,
	})
	web := m.Workload.NewChild("rcb", 800)
	m.Mem.SetProtection(web, 700<<20)

	const peakRate = 600.0
	load := 0.40
	wsFor := func(load float64) int64 { return int64((0.7 + 1.3*load) * float64(1<<30)) }

	bench := rcb.New(m.Q, m.Mem, rcb.Config{
		CG:          web,
		WorkingSet:  wsFor(load),
		TouchPerReq: 1 << 20,
		Rate:        peakRate * load,
		CPUTime:     1 * sim.Millisecond,
		Seed:        0x15,
	})
	lastBenchMu.Lock()
	lastBench = bench
	lastBenchMu.Unlock()
	bench.Start()

	if stress {
		sCG := m.System.NewChild("stress", 50)
		m.Mem.SetKillable(sCG, false)
		st := workload.NewStress(m.Mem, sCG, 1100<<20, 400e6)
		st.Start()
	}

	// PID on smoothed p95 latency (setpoint 75ms) steering load
	// increments.
	const target = 75.0 // ms
	pid := pidctl.New(0.0010, 0.0002, 0, target, -0.04, 0.04)
	smooth := stats.EWMA{Alpha: 0.35}

	var rampDone sim.Time
	reached := false
	okWindows := 0
	start := m.Eng.Now()
	m.Eng.NewTicker(2*sim.Second, func() {
		p95 := float64(bench.WinLat.Quantile(0.95)) / 1e6 // ms
		if bench.WinLat.Count() == 0 {
			p95 = 2 * target // unresponsive: back off
		}
		bench.WinLat.Reset()
		step := pid.Update(smooth.Update(p95), 2)
		load += step
		if rampTrace != nil {
			rampTrace(p95, smooth.Value(), load)
		}
		if load < 0.35 {
			load = 0.35
		}
		if load > 0.82 {
			load = 0.82
		}
		bench.SetRate(peakRate * load)
		bench.SetWorkingSet(wsFor(load))
		// Production keeps memory.low tracking the primary workload's
		// working set (oomd/senpai); reclaim pressure then lands on the
		// best-effort neighbour.
		m.Mem.SetProtection(web, wsFor(load)*85/100)

		if load >= 0.80 {
			okWindows++
			if okWindows >= 2 && !reached {
				reached = true
				rampDone = m.Eng.Now() - start
			}
		} else {
			okWindows = 0
		}
	})

	m.Run(limit)
	if !reached {
		return limit, false
	}
	return rampDone, true
}

// FormatFig15 renders the ramp table.
func FormatFig15(rows []Fig15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-8s %12s %8s\n", "config", "stress", "ramp time", "reached")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-8v %12v %8v\n", r.Config, r.Stress, r.RampTime, r.Reached)
	}
	return b.String()
}
