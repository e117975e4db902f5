// Full-fidelity fleet hosts: the fleet.MachineFactory that backs
// `iocost-fleet -fidelity full|sampled`, plus the fleet-op issuer both
// they and the Figs 18/19 curve micro-simulations run operations through.
//
// Each host is a real Machine — a seed-drawn device model (Figure 3's
// fleet SSDs plus the evaluation SSDs), a seed-drawn legacy controller
// (mostly io.latency) that flips to iocost when the migration wave reaches
// the host, and a two-cgroup workload mix (protected service vs best-effort
// bulk) whose bulk demand tracks the same pressure population the outcome
// model draws from. The machine's engine is stepped in small virtual-time
// windows: one window samples a tick's steady state instead of simulating
// the whole simulated hour, and scaled probe operations (fleet.OpProbe)
// stand in for the tick's fleet operations — their completion times,
// multiplied back up by the probe scale, are judged against the real op
// deadline.
//
// Determinism contract: a host is a pure function of (fleet seed, host ID).
// Every draw comes from per-host streams derived under exp-owned tags
// (disjoint from the fleet package's), storm draws come from a dedicated
// stream consumed only under an active storm, and each host owns a private
// engine — so fleets mixing full machines stay byte-identical at every
// worker count.
package exp

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// Stream tags for full-fidelity fleet hosts. They must stay disjoint from
// the fleet package's 0x705714c857_* selection tags — the two tag spaces
// derive from the same fleet seed.
const (
	fleetHostDrawTag  = 0x5cfe14057_000001 // device/controller/mix/pressure/probe draws
	fleetHostStormTag = 0x5cfe14057_000002 // storm outcome draws
	fleetHostBuildTag = 0x5cfe14057_000003 // per-(re)build machine seeds
)

const (
	// probeScale shrinks the fleet operation for probing: chunk count and
	// deadline divided by 24 keep a cleanup probe at 20 chunks / ~208ms
	// and a fetch probe at 8 chunks / ~417ms — big enough to feel the
	// controller, small enough to run twenty per tick window.
	probeScale = 24
	// settleWindow lets the retargeted workload mix establish contention
	// before the tick's probes are measured (runOp settles too).
	settleWindow = 50 * sim.Millisecond
	// graceStep is the engine step while waiting out probe stragglers.
	graceStep = 10 * sim.Millisecond
	// readCapBps/writeCapBps define pressure 1.0 for both the fleet hosts'
	// bulk replayer and runOp's pressure workload, so both fidelities mean
	// the same thing by "p".
	readCapBps  = 450e6
	writeCapBps = 120e6
	// probeRegion is where fleet-op IO lands (the workload replayers
	// occupy the low offsets).
	probeRegion = int64(1) << 41
)

// mix64 is the splitmix64 finalizer (same avalanche the fleet package uses
// to spread sequential host IDs across stream tags).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewFleetHost builds the full-fidelity host model for one fleet host: the
// standard fleet.MachineFactory. Wire it as ClusterConfig.Fidelity.Machine.
func NewFleetHost(spec fleet.HostSpec) fleet.HostModel {
	h := &fleetHost{
		spec: spec,
		r:    rng.Derive(spec.Seed, fleetHostDrawTag^mix64(uint64(spec.Host)+1)),
		sr:   rng.Derive(spec.Seed, fleetHostStormTag^mix64(uint64(spec.Host)+1)),
	}
	// Construction-time draws, in fixed order regardless of configuration:
	// device, legacy controller, workload mix.
	h.dev = fleetHostDevice(h.r)
	h.legacyCtl = fleetHostController(h.r)
	h.protProf, h.bulkProf = workload.FleetHostMix(h.r)
	return h
}

type fleetHost struct {
	spec fleet.HostSpec
	r    *rng.Source // draw stream (construction, pressure, probes)
	sr   *rng.Source // storm stream, consumed only under an active storm

	dev       DeviceChoice
	legacyCtl string
	protProf  workload.DemandProfile
	bulkProf  workload.DemandProfile

	m        *Machine
	migrated bool
	rebuilds int
	protCG   *cgroup.Node
	bulkCG   *cgroup.Node
	probeCG  *cgroup.Node
	prot     *workload.Replayer
	bulk     *workload.Replayer
	// epoch invalidates straggler probe callbacks from earlier ticks:
	// they may still complete, but must not issue chunks or consume
	// draws once their tick has settled.
	epoch int
}

// build assembles a fresh machine on a fresh engine. The host is rebuilt
// when the migration wave flips it (a real migration restarts the IO
// stack); the controller is the only thing that changes, but the rebuild
// seed advances so the two stacks don't replay identical device noise.
func (h *fleetHost) build(migrated bool) {
	ctl := h.legacyCtl
	if migrated {
		ctl = KindIOCost
	}
	seed := rng.DeriveSeed(h.spec.Seed,
		fleetHostBuildTag^mix64(uint64(h.spec.Host)+1)) + uint64(h.rebuilds)
	h.m = MustNewMachine(MachineConfig{
		Device:     h.dev,
		Controller: ctl,
		Seed:       seed,
	})
	h.rebuilds++
	h.migrated = migrated

	// The paper's two-tier workload split: the protected service holds
	// most of the workload slice's weight, bulk gets the remainder.
	h.protCG = h.m.Workload.NewChild("protected", 800)
	h.bulkCG = h.m.Workload.NewChild("besteffort", 100)
	parent := h.m.HostCritical
	if h.spec.Kind.Probe(probeScale).System {
		parent = h.m.System
	}
	h.probeCG = parent.NewChild("op", cgroup.DefaultWeight)
	h.prot, h.bulk = nil, nil
}

// retarget replaces the replayers with ones matching this tick's pressure:
// the protected service keeps its fixed profile, bulk absorbs the rest of
// p × device capability (what "pressure" means to the outcome model).
func (h *fleetHost) retarget(p float64, tick int) {
	if h.prot != nil {
		h.prot.Stop()
		h.bulk.Stop()
	}
	bulk := h.bulkProf
	bulk.ReadBps = max(p*readCapBps-h.protProf.ReadBps, 0)
	bulk.WriteBps = max(p*writeCapBps-h.protProf.WriteBps, 0)
	seed := rng.DeriveSeed(h.spec.Seed,
		fleetHostBuildTag^mix64(uint64(h.spec.Host)+1)^mix64(uint64(tick)+0x7e11))
	h.prot = workload.NewReplayer(h.m.Q, h.protCG, h.protProf, 0, seed)
	h.bulk = workload.NewReplayer(h.m.Q, h.bulkCG, bulk, 16<<30, seed+1)
	h.prot.Start()
	h.bulk.Start()
}

// fleetOp tracks one in-flight fleet operation.
type fleetOp struct {
	start     sim.Time
	issued    int
	completed int
	done      bool
	lat       sim.Time
}

// startFleetOp issues operation p's chunks into cg on m, starting now:
// p.Window chunks in flight, the next one issued as each completes, until
// all p.Chunks are done. Sequential offsets count up from base; random
// ones draw from r. live, if non-nil, is checked before each issue round:
// once it reports false the operation stops issuing chunks and drawing
// from r (a straggler from a settled tick).
func startFleetOp(m *Machine, cg *cgroup.Node, p fleet.OpProbe, base int64, r *rng.Source, live func() bool) *fleetOp {
	eng := m.Eng
	st := &fleetOp{start: eng.Now()}
	var flags bio.Flags
	if p.Sync {
		flags = bio.Sync
	}
	var pump func()
	pump = func() {
		if live != nil && !live() {
			return
		}
		for st.issued-st.completed < p.Window && st.issued < p.Chunks {
			op := bio.Write
			if p.ReadHalf && st.issued >= p.Chunks/2 {
				op = bio.Read
			}
			off := base + int64(st.issued)*p.Chunk
			if p.RandomOff {
				off = base + r.Int63n(1<<30)
			}
			st.issued++
			m.Q.Submit(&bio.Bio{
				Op: op, Flags: flags, Off: off, Size: p.Chunk, CG: cg,
				OnDone: func(*bio.Bio) {
					st.completed++
					if st.completed == p.Chunks {
						st.done = true
						st.lat = eng.Now() - st.start
						return
					}
					pump()
				},
			})
		}
	}
	pump()
	return st
}

// Tick runs one fleet tick: (re)build on migration flip, draw pressure,
// retarget the workload mix, run the tick's probe operations inside the
// virtual-time window, and settle each probe against the real op deadline.
func (h *fleetHost) Tick(env fleet.HostTickEnv, acc *fleet.Summary) fleet.HostTickResult {
	if h.m == nil || env.Migrated != h.migrated {
		h.build(env.Migrated)
	}
	h.epoch++
	epoch := h.epoch

	p := fleet.DrawPressure(h.r)
	h.retarget(p, env.Tick)

	eng := h.m.Eng
	eng.RunUntil(eng.Now() + settleWindow)

	probe := h.spec.Kind.Probe(probeScale)
	ops := h.spec.OpsPerHostTick
	window := h.spec.Window
	states := make([]*fleetOp, ops)
	live := func() bool { return h.epoch == epoch }
	start := eng.Now()
	spacing := window / sim.Time(ops)
	probeSpan := int64(probe.Chunks) * probe.Chunk
	if probe.RandomOff {
		probeSpan = 1 << 30
	}
	for i := 0; i < ops; i++ {
		base := probeRegion + int64(i)*probeSpan
		eng.At(start+sim.Time(i)*spacing, func() {
			states[i] = startFleetOp(h.m, h.probeCG, probe, base, h.r, live)
		})
	}
	eng.RunUntil(start + window)

	// Grace: probes are judged at 3x their scaled deadline, the same
	// timeout envelope runOp gives the unscaled operation.
	graceEnd := start + window + 3*probe.Deadline
	for eng.Now() < graceEnd {
		done := true
		for _, st := range states {
			if !st.done {
				done = false
				break
			}
		}
		if done {
			break
		}
		eng.RunUntil(min(eng.Now()+graceStep, graceEnd))
	}

	// Settlement: scale measured probe latencies back to full-op terms and
	// judge them exactly like the outcome model judges its draws — healthy
	// failures (deadline miss or the non-IO base-fail floor) first, storm
	// injection second, timeouts recorded at 3x deadline.
	deadline := h.spec.Kind.Deadline()
	timeoutNS := int64(3 * deadline)
	healthyFails, stormFails := 0, 0
	for _, st := range states {
		measured := 3 * probe.Deadline
		if st.done && st.lat < measured {
			measured = st.lat
		}
		lat := float64(measured) * float64(probe.Scale)
		if env.Pushed {
			lat *= env.PushLatFactor
		}
		lat *= env.StormLatMult

		// The base-fail draw always comes — and only comes — from the
		// draw stream, in probe order; storm draws only under a storm.
		baseFail := h.r.Bool(h.spec.Kind.BaseFailProb())
		fail := sim.Time(lat) > deadline || baseFail
		sFail := false
		if env.StormActive {
			sFail = h.sr.Bool(env.StormFailProb)
		}
		switch {
		case fail:
			healthyFails++
		case sFail:
			stormFails++
		}
		effLat := int64(lat)
		if fail || sFail || effLat > timeoutNS {
			effLat = timeoutNS
		}
		acc.Latency.Observe(effLat)
		if acc.Calib != nil {
			acc.Calib.PerTick[env.Tick].Full.Observe(effLat)
		}
	}

	// Per-workload calibration: what the protected and best-effort
	// replayers saw this tick (fresh replayers per tick, so the sketches
	// pool tick windows without double counting).
	if acc.Calib != nil {
		acc.Calib.Protected.Merge(h.prot.ReadStats.Latency)
		acc.Calib.BestEffort.Merge(h.bulk.ReadStats.Latency)
	}

	return fleet.HostTickResult{
		Pressure: p, Ops: ops,
		HealthyFails: healthyFails, StormFails: stormFails,
	}
}
