// Host fidelity: what actually runs on a host during one tick.
//
// The cluster substrate (cluster.go) fixes *where* hosts run — shard
// layout, seed-derived streams, streaming merge — while a HostModel decides
// *what* one host does per tick. Two models exist:
//
//   - the outcome model (outcomeHost, below): per-op failure draws against
//     a controller failure curve, the Figs 18/19 Monte-Carlo — cheap enough
//     for a million hosts;
//
//   - the full-machine model (exp.NewFleetHost): a real exp.Machine —
//     device model, one of the seven controllers, a workload mix — stepped
//     in virtual-time tick windows, with scaled probe operations standing
//     in for the fleet op. It lives outside this package because exp
//     imports fleet; it arrives here through Fidelity.Machine.
//
// Sampled fidelity runs both at once: a seed-derived host subset (a pure
// function of (seed, host), worker-count invariant like -flight-sample)
// gets full machines while the rest keep the outcome model, and the two
// populations cross-calibrate through per-tick latency sketches (Calib).
package fleet

import (
	"fmt"

	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// hostFidelityTag selects the full-machine host subset in sampled mode.
// Like every selection tag it feeds a pure (seed, tag, host) draw, never a
// stream, so membership cannot depend on sharding or scheduling.
const hostFidelityTag = 0x705714c857_000007

// HostTickEnv is everything the cluster has decided about one host-tick
// before the host model runs: the tick index and the envelope behaviors
// (migration, config push, fault storm) that apply. Models must draw any
// further randomness from their own seed-derived streams.
type HostTickEnv struct {
	Tick int
	// Migrated reports whether the host is on the new controller this
	// tick (monotone across ticks: a migrated host never reverts).
	Migrated bool
	// Pushed reports whether the host runs the pushed config; when true,
	// PushFailFactor scales IO-failure probability and PushLatFactor
	// scales op latency.
	Pushed         bool
	PushFailFactor float64
	PushLatFactor  float64
	// Storm is the rack-level fault-storm effect (Active=false, LatMult=1
	// on healthy ticks). Storm failure draws must come from the host's
	// storm stream only while Active, so disabling a storm reproduces the
	// healthy fleet byte-exactly.
	StormActive   bool
	StormFailProb float64
	StormLatMult  float64
}

// HostTickResult is what one host-tick did, in the units TickStats
// aggregates. Latency observations go straight into the Summary the model
// is handed; counters return here so the cluster wrapper owns all common
// bookkeeping (TickStats, flight incidents, debug views).
type HostTickResult struct {
	// Pressure is the tick's main-workload IO pressure draw.
	Pressure float64
	// Ops is how many operations ran (normally Spec.OpsPerHostTick).
	Ops int
	// HealthyFails counts deadline misses the host caused itself;
	// StormFails counts the extra misses storm injection caused.
	HealthyFails int
	StormFails   int
}

// HostModel abstracts what runs on one host for one tick. Implementations
// must be self-contained — own RNG streams, own engine if any — so that a
// host computes identical results wherever and whenever its shard runs;
// that self-containment is what makes the fleet byte-identical at every
// worker count. Tick is called once per tick in ascending tick order, and
// must observe each op's effective completion latency (ns, timeouts
// recorded as 3x deadline) into acc.Latency plus, when acc.Calib is
// non-nil, the model's per-tick calibration sketch.
type HostModel interface {
	Tick(env HostTickEnv, acc *Summary) HostTickResult
}

// HostSpec is the construction-time description of one host, handed to a
// MachineFactory. Everything a full-machine model needs must derive from
// these fields — the factory must not capture ambient state.
type HostSpec struct {
	Seed uint64
	Host int
	Rack int
	Kind OpKind
	// Ticks and TickDur describe the run's tick grid.
	Ticks   int
	TickDur sim.Time
	// OpsPerHostTick is how many fleet operations the host should account
	// per tick.
	OpsPerHostTick int
	// Window is how much machine virtual time represents one tick: full
	// machines compress a tick (hours of fleet time) into one
	// steady-state window sample rather than simulating the whole tick.
	Window sim.Time
}

// MachineFactory builds the full-fidelity model for one host. The standard
// implementation is exp.NewFleetHost; it is injected here (rather
// than imported) because the machine stack (internal/exp) sits above this
// package in the import graph.
type MachineFactory func(spec HostSpec) HostModel

// FidelityMode selects which hosts run full machines.
type FidelityMode string

const (
	// FidelityOutcome runs every host on the outcome model (the default;
	// byte-identical to clusters predating fidelity selection).
	FidelityOutcome FidelityMode = "outcome"
	// FidelitySampled runs a seed-derived SampleFrac subset on full
	// machines and the rest on the outcome model, with cross-calibration.
	FidelitySampled FidelityMode = "sampled"
	// FidelityFull runs every host on a full machine.
	FidelityFull FidelityMode = "full"
)

// ParseFidelityMode parses a -fidelity flag value.
func ParseFidelityMode(s string) (FidelityMode, error) {
	switch s {
	case "", string(FidelityOutcome):
		return FidelityOutcome, nil
	case string(FidelitySampled):
		return FidelitySampled, nil
	case string(FidelityFull):
		return FidelityFull, nil
	}
	return "", &FidelityError{Field: "Mode",
		Reason: fmt.Sprintf("unknown mode %q (want outcome, sampled or full)", s)}
}

// FidelityError is a typed rejection of a fidelity configuration; every
// invalid combination returns one rather than being silently reinterpreted.
type FidelityError struct {
	Field  string
	Reason string
}

func (e *FidelityError) Error() string {
	return "fleet: fidelity " + e.Field + ": " + e.Reason
}

// Fidelity is the host-fidelity block of a ClusterConfig: one place for
// mode, sampling fraction, tick window and the full-machine factory,
// validated as a unit (mirroring FleetFlight).
type Fidelity struct {
	// Mode selects the host model mix; the zero value is FidelityOutcome.
	Mode FidelityMode
	// SampleFrac is the full-machine fraction in FidelitySampled mode
	// (0 selects 0.01). It must be zero in other modes.
	SampleFrac float64
	// Window is machine virtual time per tick for full hosts (0 selects
	// 250ms, clamped to TickDur). It must be zero in outcome mode.
	Window sim.Time
	// Machine builds full-fidelity hosts; required unless Mode is
	// outcome. Wire exp.NewFleetHost (or iocost.NewFleetHost).
	Machine MachineFactory
}

// enabled reports whether any host runs a full machine.
func (f Fidelity) enabled() bool {
	return f.Mode == FidelitySampled || f.Mode == FidelityFull
}

func (f Fidelity) withDefaults() Fidelity {
	if f.Mode == "" {
		f.Mode = FidelityOutcome
	}
	if f.Mode == FidelitySampled && f.SampleFrac == 0 {
		f.SampleFrac = 0.01
	}
	if f.enabled() && f.Window == 0 {
		f.Window = 250 * sim.Millisecond
	}
	return f
}

// validate checks the (defaulted) block; the caller wraps nothing — every
// failure is already a *FidelityError.
func (f Fidelity) validate() error {
	switch f.Mode {
	case FidelityOutcome, FidelitySampled, FidelityFull:
	default:
		return &FidelityError{Field: "Mode",
			Reason: fmt.Sprintf("unknown mode %q (want outcome, sampled or full)", f.Mode)}
	}
	if f.SampleFrac < 0 || f.SampleFrac > 1 {
		return &FidelityError{Field: "SampleFrac",
			Reason: fmt.Sprintf("%v outside [0,1]", f.SampleFrac)}
	}
	if f.Window < 0 {
		return &FidelityError{Field: "Window",
			Reason: fmt.Sprintf("negative window %v", f.Window)}
	}
	switch f.Mode {
	case FidelityOutcome:
		if f.SampleFrac != 0 {
			return &FidelityError{Field: "SampleFrac",
				Reason: "set without Mode sampled"}
		}
		if f.Window != 0 {
			return &FidelityError{Field: "Window",
				Reason: "set in outcome mode"}
		}
	case FidelityFull:
		if f.SampleFrac != 0 {
			return &FidelityError{Field: "SampleFrac",
				Reason: "full mode runs every host; SampleFrac must be zero"}
		}
	}
	if f.enabled() && f.Machine == nil {
		return &FidelityError{Field: "Machine",
			Reason: "no MachineFactory configured (wire exp.NewFleetHost)"}
	}
	return nil
}

// fullHost reports whether host h runs a full machine: a pure function of
// (seed, host) so membership is identical at every worker count.
func (f Fidelity) fullHost(seed uint64, h int) bool {
	switch f.Mode {
	case FidelityFull:
		return true
	case FidelitySampled:
		return hostU(seed, hostFidelityTag, h) < f.SampleFrac
	default:
		return false
	}
}

// CalibTick holds one tick's cross-calibration sketches: effective op
// latency as the full machines measured it versus as the outcome model
// drew it. Comparing their quantiles is the fidelity check — how far the
// canned curves drift from the simulated stack.
type CalibTick struct {
	Full    *stats.Histogram
	Outcome *stats.Histogram
}

// Calib is the sampled-fidelity calibration block of a Summary: bounded
// like everything else (a fixed number of sketches, no per-host state).
type Calib struct {
	// FullHosts counts hosts that ran full machines.
	FullHosts int
	// PerTick is indexed by tick.
	PerTick []CalibTick
	// Protected and BestEffort sketch the full machines' per-workload
	// read completion latencies, pooled across ticks: the ordering check
	// (protected p99 < best-effort p99) that shows the controllers are
	// actually doing their job inside the fleet envelope.
	Protected  *stats.Histogram
	BestEffort *stats.Histogram
}

func newCalib(ticks int) *Calib {
	c := &Calib{
		PerTick:    make([]CalibTick, ticks),
		Protected:  stats.NewHistogram(),
		BestEffort: stats.NewHistogram(),
	}
	for i := range c.PerTick {
		c.PerTick[i] = CalibTick{Full: stats.NewHistogram(), Outcome: stats.NewHistogram()}
	}
	return c
}

// merge folds o into c (shard-index order, like Summary.Merge).
func (c *Calib) merge(o *Calib) {
	c.FullHosts += o.FullHosts
	for i := range c.PerTick {
		c.PerTick[i].Full.Merge(o.PerTick[i].Full)
		c.PerTick[i].Outcome.Merge(o.PerTick[i].Outcome)
	}
	c.Protected.Merge(o.Protected)
	c.BestEffort.Merge(o.BestEffort)
}

// Deadline returns the operation's completion deadline — the failure
// threshold full-machine host models must judge their probes against.
func (o OpKind) Deadline() sim.Time { return specFor(o).deadline }

// BaseFailProb returns the operation's non-IO failure floor (network
// flakes, bad packages): the failures no controller can remove, which
// full-machine hosts draw independently of their IO outcome.
func (o OpKind) BaseFailProb() float64 { return specFor(o).baseFail }

// OpProbe is a 1/Scale model of the fleet operation for full-fidelity
// hosts: same chunk size, IO mix and concurrency window, chunk count and
// deadline divided by Scale. Running the probe on a real machine and
// multiplying its completion time back by Scale estimates the full op's
// latency at a fraction of the simulation cost.
type OpProbe struct {
	Scale  int
	Chunk  int64
	Chunks int
	Window int
	// Sync marks synchronous writes (the cleanup op's metadata stream).
	Sync bool
	// ReadHalf: the second half of the chunks are reads (the fetch op's
	// verification pass).
	ReadHalf bool
	// RandomOff: chunk offsets are random within the op's region rather
	// than sequential.
	RandomOff bool
	// System: the op runs in the System slice (vs HostCritical).
	System bool
	// Deadline is the scaled completion deadline.
	Deadline sim.Time
}

// Probe returns the operation scaled down by scale (>= 1). Chunk count and
// window keep at least one chunk in flight.
func (o OpKind) Probe(scale int) OpProbe {
	if scale < 1 {
		scale = 1
	}
	spec := specFor(o)
	chunks := max(spec.chunks/scale, 1)
	return OpProbe{
		Scale:     scale,
		Chunk:     spec.chunk,
		Chunks:    chunks,
		Window:    min(spec.window, chunks),
		Sync:      spec.sync,
		ReadHalf:  o == PackageFetch,
		RandomOff: o != PackageFetch,
		System:    spec.system,
		Deadline:  spec.deadline / sim.Time(scale),
	}
}

// DrawPressure samples a host-tick's main-workload IO pressure from r:
// mostly moderate with a contended tail. Exported so full-machine host
// models drive their workload mix from the same pressure population the
// outcome model draws from — the two fidelities must disagree about
// latency only because of the stack, not the load.
func DrawPressure(r *rng.Source) float64 { return drawPressure(r) }

// outcomeHost is the curve-driven host model: per-op failure draws against
// the controller failure curve at the tick's pressure. This is the
// original fleet host path; its draw order from the healthy and storm
// streams is pinned by the fleet goldens and must not change.
type outcomeHost struct {
	cfg       ClusterConfig
	hr        *rng.Source // healthy stream
	sr        *rng.Source // storm stream, consumed only under active storm
	timeoutNS int64
	baseLat   float64
}

func newOutcomeHost(cfg ClusterConfig, h int) *outcomeHost {
	spec := specFor(cfg.Kind)
	return &outcomeHost{
		cfg:       cfg,
		hr:        hostStream(cfg.Seed, h),
		sr:        stormStream(cfg.Seed, h),
		timeoutNS: int64(3 * spec.deadline),
		baseLat:   float64(spec.deadline) / 6,
	}
}

func (o *outcomeHost) Tick(env HostTickEnv, acc *Summary) HostTickResult {
	cfg := o.cfg
	p := drawPressure(o.hr)

	curve := cfg.Old
	if env.Migrated {
		curve = cfg.New
	}
	ioFail := curve.At(p)
	latFactor := 1.0
	if env.Pushed {
		ioFail *= env.PushFailFactor
		latFactor = env.PushLatFactor
	}
	if ioFail > 1 {
		ioFail = 1
	}

	healthyFails, stormFails := 0, 0
	for op := 0; op < cfg.OpsPerHostTick; op++ {
		// Healthy draws always come — and only come — from the healthy
		// stream, in a fixed order, so storm and push configuration can
		// never perturb it.
		fail := o.hr.Bool(ioFail)
		lat := o.baseLat * (0.6 + 2.4*p) * o.hr.LogNormal(0, 0.3)

		sFail := false
		if env.StormActive {
			sFail = o.sr.Bool(env.StormFailProb)
		}
		switch {
		case fail:
			healthyFails++
		case sFail:
			stormFails++
		}
		effLat := int64(lat * latFactor * env.StormLatMult)
		if fail || sFail || effLat > o.timeoutNS {
			effLat = o.timeoutNS
		}
		acc.Latency.Observe(effLat)
		if acc.Calib != nil {
			acc.Calib.PerTick[env.Tick].Outcome.Observe(effLat)
		}
	}
	return HostTickResult{
		Pressure: p, Ops: cfg.OpsPerHostTick,
		HealthyFails: healthyFails, StormFails: stormFails,
	}
}
