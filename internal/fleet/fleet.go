// Package fleet reproduces the region-migration results of §4.8: package
// fetching and container cleanup failure rates as a region of hosts migrates
// from IOLatency to IOCost (Figures 18 and 19).
//
// The methodology is two-level: short per-host micro-simulations measure the
// probability that a system-slice operation (package fetch, container
// cleanup) fails under a given main-workload IO pressure and controller,
// yielding failure-probability curves; a Monte-Carlo sweep then draws
// per-host pressures for a region of hosts tick by tick as the migrated
// fraction grows, producing the fleet-wide failure series the paper plots.
// This package is the Monte-Carlo and cluster layer: the operations, their
// curves and the sharded sweep (RunCluster). The micro-simulations run on
// real machines, which sit above it in internal/exp.
package fleet

import (
	"sort"

	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
)

// OpKind selects the system-slice operation under test.
type OpKind int

const (
	// PackageFetch is the system service downloading and verifying a
	// container package on behalf of the agent (Figure 18).
	PackageFetch OpKind = iota
	// ContainerCleanup is the agent removing old container filesystems:
	// many small synchronous metadata operations (Figure 19).
	ContainerCleanup
)

func (o OpKind) String() string {
	if o == PackageFetch {
		return "package-fetch"
	}
	return "container-cleanup"
}

// opSpec describes the operation and its failure threshold. Every chunk is
// a write, except the fetch's verification half (see OpKind.Probe).
type opSpec struct {
	chunk    int64
	chunks   int
	window   int  // concurrent chunks in flight
	sync     bool // synchronous writes
	deadline sim.Time
	system   bool // run in System (true) or HostCritical (false)
	// baseFail is the operation's non-IO failure floor (network flakes,
	// races, bad packages): failures no IO controller can remove, which
	// set the denominator of the achievable reduction factor.
	baseFail float64
}

func specFor(kind OpKind) opSpec {
	switch kind {
	case PackageFetch:
		// 96MiB downloaded (written) then verified (read) in 512KiB
		// chunks with writeback-style parallelism, within 10s.
		return opSpec{chunk: 512 << 10, chunks: 96 * 2, window: 8,
			deadline: 10 * sim.Second, system: true, baseFail: 0.009}
	default:
		// 480 16KiB synchronous metadata writes, a few in flight, within
		// 5s (the paper's 5s stall threshold).
		return opSpec{chunk: 16 << 10, chunks: 480, window: 4, sync: true,
			deadline: 5 * sim.Second, system: false, baseFail: 0.055}
	}
}

// Curve maps workload pressure to operation failure probability.
type Curve struct {
	Kind      OpKind
	Pressures []float64
	FailProb  []float64
}

// At interpolates the failure probability at pressure p.
func (c Curve) At(p float64) float64 {
	if len(c.Pressures) == 0 {
		return 0
	}
	if p <= c.Pressures[0] {
		return c.FailProb[0]
	}
	last := len(c.Pressures) - 1
	if p >= c.Pressures[last] {
		return c.FailProb[last]
	}
	i := sort.SearchFloat64s(c.Pressures, p)
	x0, x1 := c.Pressures[i-1], c.Pressures[i]
	y0, y1 := c.FailProb[i-1], c.FailProb[i]
	return y0 + (y1-y0)*(p-x0)/(x1-x0)
}

// drawPressure samples a host-tick's main-workload IO pressure: mostly
// moderate, with a contended tail.
func drawPressure(r *rng.Source) float64 {
	switch {
	case r.Bool(0.70):
		return 0.2 + 0.5*r.Float64()
	case r.Bool(0.83): // 25% of the remainder
		return 0.7 + 0.25*r.Float64()
	default:
		return 0.95 + 0.15*r.Float64()
	}
}
