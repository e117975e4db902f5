package main

import (
	"fmt"

	"github.com/iocost-sim/iocost"
	"github.com/iocost-sim/iocost/internal/cli"
	"github.com/iocost-sim/iocost/internal/registry"
)

// monitorView is -monitor's per-second view of the host, read off the
// machine's metrics registry: the device table with counter rates, the
// block-layer line, the iocost snapshot (iocost only), io.stat, io.pressure
// and the SLO burn-rate alert table. Everything it reads is pull-based, so
// watching never changes the simulation.
type monitorView struct {
	m    *iocost.Machine
	reg  *registry.Registry
	slo  *iocost.SLOEvaluator
	prev counters
}

// counters are the cumulative counters the view turns into per-second
// rates.
type counters struct {
	rIOs, wIOs, rBytes, wBytes, completions float64
}

// newMonitorView reads m's registry, or registers the machine on a private
// one when neither -metrics nor -flight built a registry, and starts the
// default SLO burn-rate rules over it.
func newMonitorView(m *iocost.Machine) *monitorView {
	reg := m.Registry
	if reg == nil {
		reg = iocost.NewMetricsRegistry()
		m.RegisterMetrics(reg)
	}
	ev, err := iocost.NewSLOEvaluator(m.Eng, iocost.SLORegistrySource{Reg: reg},
		iocost.DefaultSLORules(), 0)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	ev.Start()
	return &monitorView{m: m, reg: reg, slo: ev}
}

// print renders one second of the view; rates are over the second since
// the previous call.
func (v *monitorView) print() {
	var cur counters
	dev := v.readDevice(&cur)
	cur.completions, _ = v.reg.Value("blk_completions_total", nil)
	if dev != "" {
		v.deviceTable(dev, cur)
	}
	v.blkLine(cur)
	if v.m.IOCost != nil {
		fmt.Print(v.m.IOCost.FormatSnapshot())
	}
	fmt.Print(v.m.Q.FormatIOStat())
	fmt.Print(v.m.Pressure.Format())
	fmt.Print(v.slo.Format())
	v.prev = cur
}

// readDevice fills the per-direction device counters and returns the
// device's name ("" when the device exports no metrics).
func (v *monitorView) readDevice(c *counters) string {
	dev := ""
	perDir := func(family string, r, w *float64) {
		v.reg.EachSample(family, func(_ string, ls []registry.Label, x float64) bool {
			dev = ls[0].Value
			if ls[1].Value == "read" {
				*r = x
			} else {
				*w = x
			}
			return true
		})
	}
	perDir("device_ios_total", &c.rIOs, &c.wIOs)
	perDir("device_bytes_total", &c.rBytes, &c.wBytes)
	return dev
}

// sum reads a family summed over its series (0 when absent).
func (v *monitorView) sum(family string) float64 {
	x, _ := v.reg.Sum(family)
	return x
}

func (v *monitorView) deviceTable(dev string, c counters) {
	p := v.prev
	fmt.Printf("%-14s %6s %6s %6s %9s %9s %9s %9s %7s\n",
		"device", "inflt", "busy", "queued", "r_iops", "w_iops", "r_MBps", "w_MBps", "gc")
	fmt.Printf("%-14s %6.0f %6.0f %6.0f %9.0f %9.0f %9.1f %9.1f %7.0f\n",
		dev,
		v.sum("device_inflight"),
		v.sum("device_busy"),
		v.sum("device_queued"),
		c.rIOs-p.rIOs, c.wIOs-p.wIOs,
		(c.rBytes-p.rBytes)/1e6, (c.wBytes-p.wBytes)/1e6,
		v.sum("device_gc_stalls_total"))
}

func (v *monitorView) blkLine(c counters) {
	fmt.Printf("blk: inflight=%.0f ctl_queued=%.0f completions/s=%.0f depletion_hits=%.0f",
		v.sum("blk_inflight"),
		v.sum("blk_ctl_queued"),
		c.completions-v.prev.completions,
		v.sum("blk_depletion_hits_total"))
	// Failure counters appear only when something failed, keeping the
	// healthy-path line unchanged.
	if errs, touts, retr := v.sum("blk_errors_total"), v.sum("blk_timeouts_total"),
		v.sum("blk_retries_total"); errs > 0 || touts > 0 || retr > 0 {
		fmt.Printf(" errors=%.0f timeouts=%.0f retries=%.0f", errs, touts, retr)
	}
	fmt.Println()
}
