package exp

import (
	"fmt"
	"strings"
	"time"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/profiler"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// ---------------------------------------------------------------- Table 1

// Table1Row is one mechanism's feature set.
type Table1Row struct {
	Mechanism string
	Features  ctl.Features
}

// Table1 builds the feature matrix by interrogating each controller
// implementation (mechanisms without cgroup control are grouped as in the
// paper).
func Table1() []Table1Row {
	var rows []Table1Row
	for _, kind := range AllKinds() {
		if kind == KindNone || kind == KindKyber {
			continue // folded into the kyber/mq-deadline row
		}
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(device.OlderGenSSD()),
			Controller: kind,
		})
		fr, ok := m.Ctl.(ctl.FeatureReporter)
		if !ok {
			continue
		}
		name := kind
		if kind == KindMQDL {
			name = "kyber, mq-deadline"
		}
		rows = append(rows, Table1Row{Mechanism: name, Features: fr.Features()})
	}
	return rows
}

// FormatTable1 renders the matrix like the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-12s %-15s %-12s %-13s %-7s\n",
		"Mechanism", "LowOverhead", "WorkConserving", "MemAware", "Proportional", "cgroup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %-12s %-15s %-12s %-13s %-7s\n",
			r.Mechanism, r.Features.LowOverhead, r.Features.WorkConserving,
			r.Features.MemoryAware, r.Features.Proportional, r.Features.CgroupControl)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 3

// Fig3Row is one fleet device's profile.
type Fig3Row struct {
	Device string
	profiler.Result
}

// Fig3Options tunes the device-heterogeneity sweep.
type Fig3Options struct {
	Short bool // shorter measurement windows for tests
}

// Fig3 profiles the eight fleet SSD models, reproducing the device
// heterogeneity figure: per-device random/sequential read/write IOPS and
// latency.
func Fig3(opts Fig3Options) []Fig3Row {
	po := profiler.Options{}
	if opts.Short {
		po = profiler.Options{Warmup: 300 * sim.Millisecond, Measure: 300 * sim.Millisecond, Depth: 64}
	}
	names := device.FleetSSDNames()
	return fanout.ForEach(len(names), func(i int) Fig3Row {
		spec, err := device.FleetSSDSpec(names[i])
		if err != nil {
			panic(err)
		}
		res := profiler.Profile(func(eng *sim.Engine) device.Device {
			return device.NewSSD(eng, spec, 0xf3)
		}, po)
		return Fig3Row{Device: names[i], Result: res}
	})
}

// FormatFig3 renders the sweep.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %12s %12s %12s %12s %10s %10s\n",
		"dev", "randR-IOPS", "seqR-IOPS", "randW-IOPS", "seqW-IOPS", "rLat-p50", "wLat-p50")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %12.0f %12.0f %12.0f %12.0f %10v %10v\n",
			r.Device, r.RandReadIOPS, r.SeqReadIOPS, r.RandWriteIOPS, r.SeqWriteIOPS,
			r.ReadLatP50, r.WriteLatP50)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 4

// Fig4Row is one workload's measured IO demand.
type Fig4Row struct {
	Workload   string
	ReadBps    float64
	WriteBps   float64
	RandBps    float64
	SeqBps     float64
	ReadP50Lat sim.Time
}

// Fig4Options tunes the workload-heterogeneity run.
type Fig4Options struct {
	Duration sim.Time // 0 selects 5s
}

// Fig4 replays the Meta workload demand profiles on an uncontended
// enterprise device and reports the per-second read/write and
// random/sequential byte demand each sustains — the axes of Figure 4.
func Fig4(opts Fig4Options) []Fig4Row {
	dur := opts.Duration
	if dur == 0 {
		dur = 5 * sim.Second
	}
	profiles := workload.MetaProfiles()
	return fanout.ForEach(len(profiles), func(i int) Fig4Row {
		p := profiles[i]
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(device.EnterpriseSSD()),
			Controller: KindNone,
			Seed:       uint64(i + 1),
		})
		cg := m.Workload.NewChild(p.Name, 100)
		r := workload.NewReplayer(m.Q, cg, p, 0, uint64(i)*31+7)
		r.Start()
		m.Run(dur)
		r.Stop()

		sec := dur.Seconds()
		rb := float64(r.ReadStats.Bytes) / sec
		wb := float64(r.WriteStats.Bytes) / sec
		randB := rb*p.ReadRandFrac + wb*p.WriteRandFrac
		return Fig4Row{
			Workload: p.Name,
			ReadBps:  rb, WriteBps: wb,
			RandBps: randB, SeqBps: rb + wb - randB,
			ReadP50Lat: sim.Time(r.ReadStats.Latency.Quantile(0.5)),
		}
	})
}

// FormatFig4 renders the demand table.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %12s %12s %12s %12s\n", "workload", "read B/s", "write B/s", "rand B/s", "seq B/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %12.0f %12.0f %12.0f %12.0f\n",
			r.Workload, r.ReadBps, r.WriteBps, r.RandBps, r.SeqBps)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Fig6Result is the worked cost-model translation example.
type Fig6Result struct {
	Params        core.LinearParams
	ReadSizeRate  float64 // ns per byte
	SeqReadBase   float64 // ns
	RandReadBase  float64 // ns
	ExampleCost   float64 // ns, random read of 32*4096 bytes
	ExamplePerSec float64
}

// Fig6 reproduces the configuration-translation example of Figure 6.
func Fig6() Fig6Result {
	params := core.LinearParams{
		RBps: 488636629, RSeqIOPS: 8932, RRandIOPS: 8518,
		WBps: 427891549, WSeqIOPS: 28755, WRandIOPS: 21940,
	}
	m := core.MustLinearModel(params)
	cost := m.Cost(bio.Read, 32*4096, false)
	return Fig6Result{
		Params:        params,
		ReadSizeRate:  m.SizeCostRate(bio.Read),
		SeqReadBase:   m.BaseCost(bio.Read, true),
		RandReadBase:  m.BaseCost(bio.Read, false),
		ExampleCost:   cost,
		ExamplePerSec: 1e9 / cost,
	}
}

// String renders the example.
func (r Fig6Result) String() string {
	return fmt.Sprintf("config: %s\nread size_cost_rate=%.2fns/B seq_base=%.0fus rand_base=%.0fus\nrand read 128KiB: cost=%.0fus -> %.0f IOs/sec",
		r.Params, r.ReadSizeRate, r.SeqReadBase/1000, r.RandReadBase/1000,
		r.ExampleCost/1000, r.ExamplePerSec)
}

// ---------------------------------------------------------------- Figure 8

// Fig8Result reports the emergent budget-donation weights for the Figure 8
// scenario reproduced live: B and H under-use their entitlement while E, F
// and G are saturated, and the planning path transfers hweight accordingly.
type Fig8Result struct {
	// HweightActive and HweightInuse per leaf after the run settles.
	Leaves   []string
	Active   map[string]float64
	Inuse    map[string]float64
	Received map[string]float64 // inuse - active for recipients
}

// Fig8 runs a live scenario shaped like Figure 8 and reports the donated
// weights the planning path converged to.
func Fig8() Fig8Result {
	spec := device.OlderGenSSD()
	m := MustNewMachine(MachineConfig{
		Device:     ssdChoice(spec),
		Controller: KindIOCost,
		Seed:       0xf18,
	})
	// Tree: root{B, D{H, G}, E, F} with the paper's hweight proportions.
	root := m.Hier.Root()
	B := root.NewChild("B", 25)
	D := root.NewChild("D", 55)
	E := root.NewChild("E", 16)
	F := root.NewChild("F", 4)
	H := D.NewChild("H", 20)
	G := D.NewChild("G", 35)

	// E, F, G saturate; B and H issue at well under their entitlement.
	mkSat := func(cgn *cgroup.Node, base int64, seed uint64) {
		w := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: cgn, Op: bio.Read, Pattern: workload.Random, Size: 4096, Depth: 32,
			Region: base, Seed: seed,
		})
		w.Start()
	}
	mkSat(E, 0<<32, 1)
	mkSat(F, 1<<32, 2)
	mkSat(G, 2<<32, 3)
	// B and H: think-time readers using only a fraction of their shares.
	for i, cgn := range []*cgroup.Node{B, H} {
		w := workload.NewThinkTime(m.Q, workload.ThinkTimeConfig{
			CG: cgn, Op: bio.Read, Pattern: workload.Random, Size: 4096,
			Think: 400 * sim.Microsecond, Region: int64(3+i) << 32, Seed: uint64(i) + 9,
		})
		w.Start()
	}

	m.Run(3 * sim.Second)

	leaves := map[string]*cgroup.Node{"B": B, "H": H, "E": E, "F": F, "G": G}
	res := Fig8Result{
		Leaves:   []string{"B", "H", "E", "F", "G"},
		Active:   map[string]float64{},
		Inuse:    map[string]float64{},
		Received: map[string]float64{},
	}
	for name, n := range leaves {
		res.Active[name] = n.HweightActive()
		res.Inuse[name] = n.HweightInuse()
		res.Received[name] = n.HweightInuse() - n.HweightActive()
	}
	return res
}

// String renders the donation snapshot.
func (r Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %10s %10s %10s\n", "leaf", "hw-active", "hw-inuse", "delta")
	for _, l := range r.Leaves {
		fmt.Fprintf(&b, "%-4s %10.3f %10.3f %+10.3f\n", l, r.Active[l], r.Inuse[l], r.Received[l])
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 9

// Fig9Row is one mechanism's issue-path overhead and the max IOPS it could
// sustain on a 750K-IOPS device, plus the simulation engine's own event
// throughput while running that mechanism.
type Fig9Row struct {
	Mechanism string
	PerIONS   float64 // measured controller CPU cost per IO (wall clock)
	MaxKIOPS  float64 // min(device, CPU-limited) achievable
	SimKIOPS  float64 // achieved in simulation (no throttling configured)
	// EventsPerIO is how many engine events one simulated IO costs under
	// this mechanism; MEventsPerSec is the engine's wall-clock event
	// throughput (millions/s) — the scheduler fast path EXPERIMENTS.md
	// tracks.
	EventsPerIO   float64
	MEventsPerSec float64
}

// Fig9Options tunes the overhead measurement.
type Fig9Options struct {
	IOs int // IOs per mechanism; 0 selects 300000
}

// Fig9 measures per-IO software overhead: each mechanism runs the same
// saturating 4KiB random-read workload on the enterprise device with no
// throttling configured, and its extra wall-clock cost per bio over the
// "none" baseline determines the IOPS it could sustain on a 750K IOPS
// device, mirroring the paper's methodology of measuring the unthrottled
// fast path.
func Fig9(opts Fig9Options) []Fig9Row {
	n := opts.IOs
	if n == 0 {
		n = 300000
	}

	type meas struct {
		wallPerIO float64
		simIOPS   float64
		evPerIO   float64
		evPerSec  float64
	}
	run := func(kind string) meas {
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(device.EnterpriseSSD()),
			Controller: kind,
			IOCostCfg: core.Config{
				// No throttling: model says the device is far more
				// capable than it is, vrate pinned at 100%.
				Model: core.MustLinearModel(core.IdealSSDParams(device.EnterpriseSSD()).Scale(100)),
				QoS: core.QoS{RPct: 99, RLat: sim.Second, WPct: 99, WLat: sim.Second,
					VrateMin: 1, VrateMax: 1},
			},
			Seed: 0xf9,
		})
		cg := m.Workload.NewChild("fio", 100)
		w := workload.NewSaturator(m.Q, workload.SaturatorConfig{
			CG: cg, Op: bio.Read, Pattern: workload.Random, Size: 4096, Depth: 128, Seed: 0xf9,
		})
		start := time.Now()
		w.Start()
		for m.Q.Completions() < uint64(n) && m.Eng.Step() {
		}
		wall := time.Since(start).Seconds()
		w.Stop()
		return meas{
			wallPerIO: wall / float64(n) * 1e9,
			simIOPS:   float64(m.Q.Completions()) / m.Eng.Now().Seconds(),
			evPerIO:   float64(m.Eng.EventsRun()) / float64(m.Q.Completions()),
			evPerSec:  float64(m.Eng.EventsRun()) / wall / 1e6,
		}
	}

	// The baseline must finish first (every mechanism's overhead is relative
	// to it); the six mechanism cells are then independent and fan out.
	base := run(KindNone)
	// The paper's device does 750K IOPS; the kernel block layer consumes
	// the rest of a core's budget.
	const devIOPS = 750_000.0
	const baselinePerIO = 1e9 / devIOPS

	kinds := []string{KindMQDL, KindKyber, KindBFQ, KindThrottle, KindIOLatency, KindIOCost}
	meass := fanout.ForEach(len(kinds), func(i int) meas { return run(kinds[i]) })

	rows := []Fig9Row{{
		Mechanism: KindNone, PerIONS: 0,
		MaxKIOPS: devIOPS / 1000, SimKIOPS: base.simIOPS / 1000,
		EventsPerIO: base.evPerIO, MEventsPerSec: base.evPerSec,
	}}
	for i, kind := range kinds {
		r := meass[i]
		over := r.wallPerIO - base.wallPerIO
		if over < 0 {
			over = 0
		}
		// Achievable IOPS is bounded both by per-IO CPU cost and by any
		// dispatch limits the mechanism imposes (BFQ's exclusive service
		// slots cap throughput even at zero CPU cost).
		max := 1e9 / (baselinePerIO + over)
		if structural := r.simIOPS / base.simIOPS * devIOPS; structural < max {
			max = structural
		}
		rows = append(rows, Fig9Row{
			Mechanism:   kind,
			PerIONS:     over,
			MaxKIOPS:    max / 1000,
			SimKIOPS:    r.simIOPS / 1000,
			EventsPerIO: r.evPerIO, MEventsPerSec: r.evPerSec,
		})
	}
	return rows
}

// FormatFig9 renders the overhead table.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %12s %12s %10s %12s\n",
		"mechanism", "overhead ns/IO", "max KIOPS", "sim KIOPS", "events/IO", "Mevents/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %14.0f %12.0f %12.0f %10.1f %12.1f\n",
			r.Mechanism, r.PerIONS, r.MaxKIOPS, r.SimKIOPS, r.EventsPerIO, r.MEventsPerSec)
	}
	return b.String()
}
