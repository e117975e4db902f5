package workload

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// LoadShedder models a latency-sensitive online service that issues IO as
// fast as it can *while* its observed p50 latency stays under a target
// (§4.2): each adjustment window it raises its issue rate when latency is
// healthy and sheds load multiplicatively when the target is violated.
type LoadShedder struct {
	q   *blk.Queue
	cg  *cgroup.Node
	op  bio.Op
	pat Pattern
	sz  int64
	reg region

	target   sim.Time
	window   sim.Time
	rate     float64 // IOs per second
	minRate  float64
	maxRate  float64
	inflight int
	maxInfl  int

	winLat *stats.Histogram
	Stats  *Stats
	shed   uint64

	// adj drives adjust; pacer issues on the 1/rate grid and parks while
	// the in-flight cap holds, so the shed ticks cost nothing.
	adj   *sim.Ticker
	pacer *sim.Pacer
	// onDone is built once so completions allocate no closures.
	onDone func(*bio.Bio)
}

// LoadShedderConfig configures a LoadShedder.
type LoadShedderConfig struct {
	CG      *cgroup.Node
	Op      bio.Op
	Pattern Pattern
	Size    int64
	// Target is the p50 latency ceiling (the paper uses 200us).
	Target sim.Time
	// Window is the adjustment period; 0 selects 25ms.
	Window sim.Time
	// InitialRate is the starting issue rate in IO/s; 0 selects 1000.
	InitialRate float64
	// MaxRate caps the issue rate; 0 selects 2,000,000.
	MaxRate float64
	// MaxInFlight caps outstanding IO; 0 selects 64.
	MaxInFlight int
	Region      int64
	Span        int64
	Seed        uint64
}

// NewLoadShedder builds the workload.
func NewLoadShedder(q *blk.Queue, cfg LoadShedderConfig) *LoadShedder {
	if cfg.Size <= 0 {
		cfg.Size = 4096
	}
	if cfg.Window <= 0 {
		cfg.Window = 25 * sim.Millisecond
	}
	if cfg.InitialRate <= 0 {
		cfg.InitialRate = 1000
	}
	if cfg.MaxRate <= 0 {
		cfg.MaxRate = 2e6
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.Span <= 0 {
		cfg.Span = 16 << 30
	}
	w := &LoadShedder{
		q: q, cg: cfg.CG, op: cfg.Op, pat: cfg.Pattern, sz: cfg.Size,
		reg:     region{base: cfg.Region, size: cfg.Span, rnd: rng.Derive(cfg.Seed, 0x10ad)},
		target:  cfg.Target,
		window:  cfg.Window,
		rate:    cfg.InitialRate,
		minRate: 50,
		maxRate: cfg.MaxRate,
		maxInfl: cfg.MaxInFlight,
		winLat:  stats.NewHistogram(),
		Stats:   newStats(),
	}
	w.onDone = func(b *bio.Bio) {
		w.inflight--
		w.Stats.observe(b)
		w.winLat.Observe(int64(b.Latency()))
		w.pacer.Resume()
	}
	return w
}

// Rate returns the current issue rate in IO/s.
func (w *LoadShedder) Rate() float64 { return w.rate }

// Shed counts issue slots skipped because the in-flight cap was hit —
// demand the service turned away. Slots the pacer skipped while parked
// count too.
func (w *LoadShedder) Shed() uint64 {
	if w.pacer == nil {
		return w.shed
	}
	return w.shed + w.pacer.Skipped()
}

// Start begins issuing and latency-driven rate adjustment.
func (w *LoadShedder) Start() {
	eng := w.q.Engine()
	w.adj = eng.NewTicker(w.window, w.adjust)
	w.pacer = eng.NewPacer(w.gap(), w.issue)
}

// Stop ceases issuing and rate adjustment; IO in flight still completes.
func (w *LoadShedder) Stop() {
	if w.pacer != nil {
		w.adj.Stop()
		w.pacer.Stop()
	}
}

// gap is the issue interval at the current rate.
func (w *LoadShedder) gap() sim.Time {
	gap := sim.Time(1e9 / w.rate)
	if gap < 1 {
		gap = 1
	}
	return gap
}

// issue is one pacing tick. It reports idle while the in-flight cap holds:
// every tick until a completion would only shed.
func (w *LoadShedder) issue() (idle bool) {
	if w.inflight >= w.maxInfl {
		w.shed++
		return true
	}
	w.inflight++
	b := w.q.BioPool().Get()
	b.Op = w.op
	b.Flags = bio.Sync
	b.Off = w.reg.offset(w.pat, w.sz)
	b.Size = w.sz
	b.CG = w.cg
	b.OnDone = w.onDone
	w.q.Submit(b)
	return w.inflight >= w.maxInfl
}

func (w *LoadShedder) adjust() {
	if w.winLat.Count() == 0 {
		// No completions at all: the device is unresponsive; shed hard.
		w.rate *= 0.5
	} else {
		p50 := sim.Time(w.winLat.Quantile(0.50))
		if p50 <= w.target {
			w.rate *= 1.10
		} else {
			w.rate *= 0.75
		}
	}
	if w.rate < w.minRate {
		w.rate = w.minRate
	}
	if w.rate > w.maxRate {
		w.rate = w.maxRate
	}
	w.pacer.SetGap(w.gap())
	w.winLat.Reset()
}
