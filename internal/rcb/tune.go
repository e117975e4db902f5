package rcb

import (
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/mem"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// This file implements the §3.4 QoS tuning procedure: ResourceControlBench
// is run across a sweep of *pinned* vrates in two scenarios —
//
//  1. alone on an overcommitted machine, where paging throughput limits its
//     performance: the vrate above which throughput gains stop mattering
//     becomes VrateMax;
//  2. collocated with a memory leaker: the vrate below which latency
//     protection stops improving becomes VrateMin.
//
// The two points bound the range vrate is allowed to move in production.

// TuneResult is the outcome of a tuning sweep.
type TuneResult struct {
	QoS core.QoS
	// Sweep records (vrate, scenario-1 RPS, scenario-2 p95 ms) per point.
	Vrates  []float64
	AloneR  []float64 // delivered RPS, scenario 1
	LeakP95 []float64 // p95 latency (ms), scenario 2
}

// TuneOptions parameterizes the sweep.
type TuneOptions struct {
	// Vrates to pin and test; nil selects {0.3 .. 1.5}.
	Vrates []float64
	// Duration per scenario run; 0 selects 8s.
	Duration sim.Time
	Seed     uint64
}

// Tune derives QoS parameters for an SSD spec by running the two scenarios
// across the vrate sweep. Latency percentile targets are set from the
// device's loaded operating point; the sweep sets the vrate bounds.
func Tune(spec device.SSDSpec, opts TuneOptions) TuneResult {
	if opts.Vrates == nil {
		opts.Vrates = []float64{0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5}
	}
	if opts.Duration == 0 {
		opts.Duration = 8 * sim.Second
	}

	res := TuneResult{Vrates: opts.Vrates}
	for _, v := range opts.Vrates {
		res.AloneR = append(res.AloneR, runTuneScenario(spec, v, false, opts))
		res.LeakP95 = append(res.LeakP95, runTuneScenario(spec, v, true, opts))
	}

	// VrateMax: the smallest vrate delivering >= 97% of the best
	// scenario-1 throughput — beyond it, loosening throttling buys
	// nothing for memory overcommit.
	best := 0.0
	for _, r := range res.AloneR {
		if r > best {
			best = r
		}
	}
	vmax := opts.Vrates[len(opts.Vrates)-1]
	for i, r := range res.AloneR {
		if r >= 0.97*best {
			vmax = opts.Vrates[i]
			break
		}
	}

	// VrateMin: the largest vrate whose scenario-2 p95 is within 20% of
	// the best (lowest) observed — below it, tightening buys no further
	// protection.
	bestP95 := res.LeakP95[0]
	for _, p := range res.LeakP95 {
		if p < bestP95 {
			bestP95 = p
		}
	}
	vmin := opts.Vrates[0]
	for i := len(opts.Vrates) - 1; i >= 0; i-- {
		if res.LeakP95[i] <= bestP95*1.2 {
			vmin = opts.Vrates[i]
			break
		}
	}
	if vmin > vmax {
		vmin = vmax
	}

	// Latency targets: the hand-tuned small multiples of the device's
	// loaded operating points.
	res.QoS = core.HandTunedSSD(spec)
	res.QoS.VrateMin, res.QoS.VrateMax = vmin, vmax
	return res
}

// runTuneScenario runs one pinned-vrate point and returns the scenario
// metric: delivered RPS (scenario 1) or p95 latency in ms (scenario 2).
func runTuneScenario(spec device.SSDSpec, vrate float64, withLeaker bool, opts TuneOptions) float64 {
	eng := sim.New()
	dev := device.NewSSD(eng, spec, opts.Seed^0x7e)
	ioc := core.New(core.Config{
		Model: core.MustLinearModel(core.IdealSSDParams(spec)),
		// Pin vrate at the point under test.
		QoS: core.QoS{
			RPct: 90, RLat: sim.Second, WPct: 90, WLat: sim.Second,
			VrateMin: vrate, VrateMax: vrate,
		},
	})
	q := blk.New(eng, dev, ioc, 0)
	hier := cgroup.NewHierarchy()
	system := hier.Root().NewChild("system", 50)
	wl := hier.Root().NewChild("workload", 850)
	web := wl.NewChild("rcb", 100)

	pool := mem.NewPool(q, mem.Config{
		Capacity:     1536 << 20,
		SwapCapacity: 8 << 30,
		DebtDelay:    ioc.Delay,
		Seed:         opts.Seed,
	})
	pool.SetProtection(web, 800<<20)

	// Scenario 1 sizes the working set beyond capacity so paging
	// throughput limits performance (§3.4: "adjusts its working set size
	// until the throughput available for paging and swap operations
	// begins to limit performance"); scenario 2 keeps the service inside
	// capacity and adds the leaking neighbour.
	ws := int64(1800) << 20
	if withLeaker {
		ws = 1100 << 20
	}
	b := New(q, pool, Config{
		CG:          web,
		WorkingSet:  ws,
		TouchPerReq: 1 << 20,
		ReadsPerReq: 3,
		Rate:        400,
		CPUTime:     sim.Millisecond,
		Seed:        opts.Seed,
	})
	b.Start()

	if withLeaker {
		leak := system.NewChild("leak", 50)
		pool.SetKillable(leak, true)
		l := workload.NewLeaker(pool, leak, 450e6)
		l.Start()
	}

	warm := opts.Duration / 4
	eng.RunUntil(warm)
	b.Completed.TakeWindow()
	b.WinLat.Reset()
	eng.RunUntil(opts.Duration)
	if withLeaker {
		return float64(b.WinLat.Quantile(0.95)) / 1e6
	}
	return RPS(b.Completed.TakeWindow(), opts.Duration-warm)
}
