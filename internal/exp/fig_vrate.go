package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
	"github.com/iocost-sim/iocost/internal/workload"
)

// Fig13Result holds the vrate-compensation time series: a saturating
// random-read workload on the newer-generation SSD with a p90=250us read
// QoS, with the cost model halved at T1 and set to double the original at
// T2. vrate must compensate both ways while holding the latency target.
type Fig13Result struct {
	Vrate stats.Series // (t seconds, vrate %)
	IOPS  stats.Series // (t seconds, thousand IOPS)
	P90   stats.Series // (t seconds, p90 read latency us)
	T1    sim.Time
	T2    sim.Time

	// Mean vrate in each phase, for the summary row.
	VratePhase [3]float64
}

// Fig13Options tunes the run.
type Fig13Options struct {
	Phase sim.Time // per-phase duration; 0 selects 8s
	// DisableVrateAdj ablates the compensation, showing what happens
	// without it.
	DisableVrateAdj bool
}

// Fig13 runs the model-inaccuracy experiment.
func Fig13(opts Fig13Options) Fig13Result {
	phase := opts.Phase
	if phase == 0 {
		phase = 8 * sim.Second
	}
	spec := device.NewerGenSSD()
	params := core.IdealSSDParams(spec)
	qos := core.QoS{
		RPct: 90, RLat: 250 * sim.Microsecond,
		WPct: 90, WLat: 2 * sim.Millisecond,
		VrateMin: 0.1, VrateMax: 4.0,
	}

	var res Fig13Result
	res.T1, res.T2 = phase, 2*phase

	m := MustNewMachine(MachineConfig{
		Device:     ssdChoice(spec),
		Controller: KindIOCost,
		IOCostCfg: core.Config{
			Model:           core.MustLinearModel(params),
			QoS:             qos,
			DisableVrateAdj: opts.DisableVrateAdj,
		},
		Seed: 0x13,
	})
	cg := m.Workload.NewChild("fio", 100)
	w := workload.NewSaturator(m.Q, workload.SaturatorConfig{
		CG: cg, Op: bio.Read, Pattern: workload.Random, Size: 4096, Depth: 64, Seed: 1,
	})
	w.Start()

	// Sample vrate/IOPS/p90 every 200ms.
	const win = 200 * sim.Millisecond
	m.Eng.NewTicker(win, func() {
		t := m.Eng.Now().Seconds()
		res.Vrate.Add(t, m.IOCost.Vrate()*100)
		res.IOPS.Add(t, float64(w.Stats.TakeWindow())/win.Seconds()/1000)
		res.P90.Add(t, float64(m.Q.ReadLat.Quantile(0.90))/1000)
		m.Q.ReadLat.Reset()
	})

	// Phase boundaries: halve the model, then set it to double the
	// original values.
	m.Eng.At(res.T1, func() {
		m.IOCost.SetModel(core.MustLinearModel(params.Scale(0.5)))
	})
	m.Eng.At(res.T2, func() {
		m.IOCost.SetModel(core.MustLinearModel(params.Scale(2.0)))
	})

	m.Run(3 * phase)

	// Phase means, skipping the first quarter of each phase (transient).
	for p := 0; p < 3; p++ {
		lo := (float64(p) + 0.25) * phase.Seconds()
		hi := float64(p+1) * phase.Seconds()
		var sum float64
		var n int
		for i, t := range res.Vrate.X {
			if t > lo && t <= hi {
				sum += res.Vrate.Y[i]
				n++
			}
		}
		if n > 0 {
			res.VratePhase[p] = sum / float64(n)
		}
	}
	return res
}

// String summarizes the phases.
func (r Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "phase vrate means: accurate=%.0f%% half-model=%.0f%% double-model=%.0f%%\n",
		r.VratePhase[0], r.VratePhase[1], r.VratePhase[2])
	fmt.Fprintf(&b, "p90 read latency: mean %.0fus max %.0fus (target 250us)\n",
		r.P90.MeanY(), r.P90.MaxY())
	return b.String()
}
