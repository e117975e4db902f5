package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/zk"
)

// Fig16Row is one mechanism's stacked-ZooKeeper outcome.
type Fig16Row struct {
	Mechanism  string
	Violations int
	WorstP99   sim.Time
	OverallP99 sim.Time
}

// Fig16Options tunes the experiment.
type Fig16Options struct {
	Duration sim.Time // 0 selects 6 simulated minutes
	Config   zk.Config
}

// Fig16 runs the stacked ZooKeeper-like deployment — twelve ensembles of
// five participants over five machines with enterprise SSDs, one noisy
// ensemble with 3x payloads — under each cgroup-aware mechanism and counts
// one-second-SLO violations of the eleven well-behaved ensembles.
//
// The paper runs six hours; the default here runs six simulated minutes
// with the snapshot cadence scaled correspondingly, so violation counts are
// comparable in shape, not absolute number.
func Fig16(opts Fig16Options) []Fig16Row {
	dur := opts.Duration
	if dur == 0 {
		dur = 6 * 60 * sim.Second
	}

	kinds := CgroupKinds()
	return fanout.ForEach(len(kinds), func(ki int) Fig16Row {
		kind := kinds[ki]
		eng := sim.New()
		spec := device.EnterpriseSSD()
		cfg := opts.Config
		cfg.Seed ^= 0x16

		// Five machines sharing one engine.
		nMach := cfg.Machines
		if nMach == 0 {
			nMach = 5
		}
		queues := make([]*blk.Queue, nMach)
		cgs := make([][]*cgroup.Node, nMach)
		nEns := cfg.Ensembles
		if nEns == 0 {
			nEns = 12
		}
		for i := range queues {
			dev := device.NewSSD(eng, spec, uint64(i)+0x16)
			var c blk.Controller
			if kind == KindIOCost {
				c = newIOCostController(spec)
			} else {
				var err error
				if c, err = ctl.New(kind, ctl.Config{}); err != nil {
					panic("fig16: " + err.Error())
				}
			}
			q := blk.New(eng, dev, c, 0)
			queues[i] = q

			hier := cgroup.NewHierarchy()
			wl := hier.Root().NewChild("workload", 850)
			hier.Root().NewChild("system", 50)
			cgs[i] = make([]*cgroup.Node, nEns)
			for e := 0; e < nEns; e++ {
				cg := wl.NewChild(fmt.Sprintf("ens-%d", e), 100)
				cgs[i][e] = cg
				switch cc := c.(type) {
				case *ctl.Throttle:
					// Limits provisioned for nominal traffic (with 3x
					// headroom) — the only tractable way to configure
					// absolute limits for twelve tenants, and exactly
					// why blk-throttle falls over during snapshot
					// spikes: a participant's appends queue behind its
					// own capped snapshot writeback for many seconds.
					nominalBps := cfg.WriteRate * float64(cfg.PayloadSize)
					if nominalBps == 0 {
						nominalBps = 100 * (100 << 10)
					}
					cc.SetLimits(cg, ctl.ThrottleLimits{WriteBps: nominalBps * 3})
				case *ctl.IOLatency:
					// io.latency cannot express "equal shares": equal
					// targets reduce it to a no-op, so deployments tier
					// the targets — and any tiering punishes everyone
					// below a participant that is merely snapshotting.
					cc.SetTarget(cg, sim.Time(10+3*e)*sim.Millisecond)
				}
			}
		}

		cluster := zk.NewCluster(queues, func(machine, ensemble int) *cgroup.Node {
			return cgs[machine][ensemble]
		}, cfg)
		cluster.Start()
		eng.RunUntil(dur)
		cluster.Stop()

		return Fig16Row{
			Mechanism:  kind,
			Violations: cluster.ViolationCount(),
			WorstP99:   cluster.WorstP99(),
			OverallP99: cluster.P99All(),
		}
	})
}

// FormatFig16 renders the SLO-violation table.
func FormatFig16(rows []Fig16Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %14s %14s\n", "mechanism", "violations", "worst p99", "overall p99")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12d %14v %14v\n", r.Mechanism, r.Violations, r.WorstP99, r.OverallP99)
	}
	return b.String()
}
