package tune

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// A branch is one forked evaluation of a candidate config: a fresh
// exp.NewMachine host built from the scenario seed, identical to every
// other branch except for the QoS under test. Branches share no state, so
// fanout can race any number of them and the measurement of each is a pure
// function of (scenario, qos, seed, warmup, window).

// Seed-stream tags for the branch's workloads; the device draws from
// exp.NewMachine's stream of the same seed, so a tuned config's evaluation
// sees the same device noise an experiment run would.
const (
	shedSeedTag = 0x51ed
	bulkRSeed   = 0xb01c
	bulkWSeed   = 0xb11c
)

// Measure is what one branch evaluation observes, read back through the
// registry's typed accessors.
type Measure struct {
	// P99 is the protected workload's 99th-percentile completion latency
	// over the measurement window.
	P99 sim.Time
	// ProtIOPS is the protected workload's delivered completion rate.
	ProtIOPS float64
	// BulkBps is the best-effort cgroup's byte throughput (reads+writes).
	BulkBps float64
	// VrateMean is iocost's mean vrate over the window, sampled at 50ms.
	VrateMean float64
	// PressurePct is system full-stall PSI over the window, in percent.
	PressurePct float64
}

// latencyHints returns rough loaded service times per direction, used to
// scale random candidates' latency targets.
func (sc Scenario) latencyHints() (r, w sim.Time) {
	switch d := sc.Device; {
	case d.SSD != nil:
		r = device.New4kLatencyHint(*d.SSD)
		ws := d.SSD.RandWriteNS
		if sustained := 128 << 10 * float64(d.SSD.Parallelism) / d.SSD.SustainedWBp * 1e9; sustained > ws {
			ws = sustained
		}
		w = sim.Time(ws)
	case d.HDD != nil:
		p := core.IdealHDDParams(*d.HDD)
		r = sim.Time(1e9 / p.RRandIOPS)
		w = r
	default:
		r = sim.Time(d.Remote.RTTNS)
		w = r + sim.Time(d.Remote.WriteExtraNS)
	}
	return r, w
}

// evaluate runs one branch: warmup, then a measurement window, returning
// what the tuner's objective scores. All observation goes through the
// registry's typed accessors — the same numbers a scrape would export.
func evaluate(sc Scenario, qos core.QoS, seed uint64, warmup, window sim.Time) Measure {
	mach, err := exp.NewMachine(exp.MachineConfig{
		Device:     sc.Device,
		Controller: exp.KindIOCost,
		IOCostCfg:  core.Config{QoS: qos},
		Seed:       seed,
		Pressure:   true,
	})
	if err != nil {
		panic(err) // scenarios and candidates are validated before evaluation
	}
	eng, q := mach.Eng, mach.Q
	prot := mach.Workload.NewChild("prot", 800)
	bulk := mach.Workload.NewChild("bulk", 100)
	// A bare registry: the branch reads values through the typed
	// accessors, so it needs no Sampler ticking on the clock.
	reg := registry.New()
	mach.RegisterMetrics(reg)

	shed := workload.NewLoadShedder(q, workload.LoadShedderConfig{
		CG: prot, Op: bio.Read, Pattern: workload.Random, Size: 4096,
		Target:      sc.ShedTarget,
		InitialRate: 2000,
		MaxInFlight: 16,
		Seed:        rng.DeriveSeed(seed, shedSeedTag),
	})
	reg.Histogram("tune_protected_latency_ns",
		"protected workload completion latency", nil, shed.Stats.Latency)
	bulkR := workload.NewSaturator(q, workload.SaturatorConfig{
		CG: bulk, Op: bio.Read, Pattern: workload.Sequential,
		Size: 128 << 10, Depth: 16, Region: 32 << 30,
		Seed: rng.DeriveSeed(seed, bulkRSeed),
	})
	bulkW := workload.NewSaturator(q, workload.SaturatorConfig{
		CG: bulk, Op: bio.Write, Pattern: workload.Sequential,
		Size: 256 << 10, Depth: 8, Region: 64 << 30,
		Seed: rng.DeriveSeed(seed, bulkWSeed),
	})

	var vsum float64
	var vn int
	eng.NewTicker(50*sim.Millisecond, func() {
		if v, ok := reg.GaugeValue("iocost_vrate", nil); ok {
			vsum += v
			vn++
		}
	})

	shed.Start()
	bulkR.Start()
	bulkW.Start()

	eng.RunUntil(warmup)
	shed.Stats.Latency.Reset()
	bulk0 := bulkBytes(reg)
	press0, _ := reg.CounterValue("io_pressure_full_seconds_total", scopeSystem)
	vsum0, vn0 := vsum, vn

	eng.RunUntil(warmup + window)

	var m Measure
	if p99, ok := reg.SummaryQuantile("tune_protected_latency_ns", 0.99, nil); ok {
		m.P99 = sim.Time(p99)
	}
	secs := window.Seconds()
	if n, ok := reg.SummaryCount("tune_protected_latency_ns", nil); ok {
		m.ProtIOPS = n / secs
	}
	m.BulkBps = (bulkBytes(reg) - bulk0) / secs
	if press1, ok := reg.CounterValue("io_pressure_full_seconds_total", scopeSystem); ok {
		m.PressurePct = (press1 - press0) / secs * 100
	}
	if vn > vn0 {
		m.VrateMean = (vsum - vsum0) / float64(vn-vn0)
	}
	return m
}

var (
	scopeSystem = registry.L("scope", "system")
	bulkCG      = registry.L("cgroup", "/workload/bulk")
)

// bulkBytes reads the best-effort cgroup's cumulative read+write bytes.
func bulkBytes(reg *registry.Registry) float64 {
	r, _ := reg.CounterValue("blk_cg_rbytes_total", bulkCG)
	w, _ := reg.CounterValue("blk_cg_wbytes_total", bulkCG)
	return r + w
}
