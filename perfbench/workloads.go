package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/tune"
	wl "github.com/iocost-sim/iocost/internal/workload"
)

// workload is one fixed-size operation the benchmark repeats in a closed
// loop: setup prepares one repetition (timed as setup_s), and the function
// it returns runs it (the timed phase).
type workload struct {
	name string
	// headline names the workload's own end-to-end figure: a rate when it
	// ends in "_per_s" (work units per host second), otherwise host seconds
	// per work unit.
	headline string
	// workers is the fan-out width the workload runs at; cpu_util divides
	// by it.
	workers int
	setup   func(seed uint64, tr *tracer) (func() (repResult, error), error)
}

// repResult is what one repetition produced.
type repResult struct {
	// ops is the operations attempted — bios, fleet runs or
	// recommendations — and opFails those the program itself failed.
	ops, opFails uint64
	// work is the throughput numerator: bios, hosts or recommendations.
	work float64
	// simS is the simulated machine-seconds the repetition covered.
	simS float64
	// digest is the canonical text of every simulated output; its hash
	// must repeat exactly across repetitions of a seed.
	digest string
	// problems lists the output checks that failed.
	problems []string
	// counts holds per-layer counters read from public accessors.
	counts map[string]float64
}

func digestHash(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// workloads returns the benchmark's workloads at full size, in the order
// BENCHMARK.json lists them.
func workloads() []workload {
	nproc := runtime.NumCPU()
	return []workload{
		stackIOCost(5 * sim.Second),
		stackNull(2 * sim.Second),
		fleetOutcome(300_000, nproc),
		tuneFleetA(tune.Options{}, nproc),
	}
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames(ws []workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// cgroupLoad is one saturating workload in its own cgroup.
type cgroupLoad struct {
	name    string
	weight  float64
	op      bio.Op
	pattern wl.Pattern
	size    int64
	depth   int
}

// stackSpec is a single-machine workload: one device, one controller,
// saturating loads, run for simFor of simulated time in RunFor slices.
type stackSpec struct {
	device     string
	controller string
	loads      []cgroupLoad
	simFor     sim.Time
}

// runSlice is the simulated time one Machine.RunFor call (and one traced
// span) covers.
const runSlice = sim.Second

// stackIOCost is the paper's proportional-control case on a noisy,
// GC-prone fleet SSD: three cgroups whose iocost shares must follow their
// weights.
func stackIOCost(simFor sim.Time) workload {
	s := stackSpec{
		device:     "A",
		controller: exp.KindIOCost,
		simFor:     simFor,
		loads: []cgroupLoad{
			{"web", 400, bio.Read, wl.Random, 4 << 10, 32},
			{"db", 200, bio.Write, wl.Random, 4 << 10, 16},
			{"batch", 100, bio.Write, wl.Sequential, 64 << 10, 8},
		},
	}
	return workload{name: "stack-iocost", headline: "bios_per_s", workers: 1, setup: s.setup}
}

// stackNull is pure per-bio software cost: no controller, a noiseless
// fixed-service-time device.
func stackNull(simFor sim.Time) workload {
	s := stackSpec{
		device:     "null",
		controller: exp.KindNone,
		simFor:     simFor,
		loads: []cgroupLoad{
			{"reader", 100, bio.Read, wl.Random, 4 << 10, 32},
			{"writer", 200, bio.Write, wl.Sequential, 4 << 10, 8},
		},
	}
	return workload{name: "stack-null", headline: "bios_per_s", workers: 1, setup: s.setup}
}

func (s stackSpec) setup(seed uint64, tr *tracer) (func() (repResult, error), error) {
	dev, err := exp.ParseDevice(s.device)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("exp.NewMachine")
	m, err := exp.NewMachine(exp.MachineConfig{Device: dev, Controller: s.controller, Seed: seed})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("workload.NewSaturator")
	sats := make([]*wl.Saturator, len(s.loads))
	for i, l := range s.loads {
		sats[i] = wl.NewSaturator(m.Q, wl.SaturatorConfig{
			CG:      m.Workload.NewChild(l.name, l.weight),
			Op:      l.op,
			Pattern: l.pattern,
			Size:    l.size,
			Depth:   l.depth,
			Region:  int64(i) * (32 << 30),
			Seed:    rng.DeriveSeed(seed, uint64(i+1)),
		})
	}
	tr.end(sp)
	return func() (repResult, error) { return s.run(m, sats, tr), nil }, nil
}

func (s stackSpec) run(m *exp.Machine, sats []*wl.Saturator, tr *tracer) repResult {
	for _, w := range sats {
		w.Start()
	}
	for t := sim.Time(0); t < s.simFor; t += runSlice {
		sp := tr.begin("Machine.RunFor")
		m.RunFor(min(runSlice, s.simFor-t))
		tr.end(sp)
	}
	sp := tr.begin("stack.report")
	res := s.report(m, sats)
	tr.end(sp)
	return res
}

// report renders the digest text and runs the output checks.
func (s stackSpec) report(m *exp.Machine, sats []*wl.Saturator) repResult {
	q, pool := m.Q, m.Q.BioPool()
	var b strings.Builder
	var done uint64
	depth := 0
	for i, w := range sats {
		l := s.loads[i]
		fmt.Fprintf(&b, "%s done=%d bytes=%d p50=%dns p99=%dns\n", l.name, w.Stats.Done, w.Stats.Bytes,
			w.Stats.Latency.Quantile(0.5), w.Stats.Latency.Quantile(0.99))
		done += w.Stats.Done
		depth += l.depth
	}
	vrate := 0.0
	if m.IOCost != nil {
		vrate = m.IOCost.Vrate()
		fmt.Fprintf(&b, "vrate=%.17g\n", vrate)
	}
	dep, _ := q.DepletionTotals()
	res := repResult{
		ops:     pool.Gets(),
		opFails: q.Failures(),
		work:    float64(done),
		simS:    s.simFor.Seconds(),
		digest:  b.String(),
		counts: map[string]float64{
			"sim.events":          float64(m.Eng.EventsRun()),
			"blk.completions":     float64(q.Completions()),
			"blk.tag_depletion_s": dep.Seconds(),
			"bio.allocs":          float64(pool.Allocated()),
			"core.vrate":          vrate,
		},
	}
	if n := q.Failures() + q.Errors() + q.Timeouts(); n != 0 {
		res.problem("blk reported failures=%d errors=%d timeouts=%d", q.Failures(), q.Errors(), q.Timeouts())
	}
	// Every submitted bio is completed or still in flight: the saturators
	// keep exactly their depth outstanding, and each completion returned
	// its bio to the pool once.
	if done != q.Completions() || pool.Recycled() != done || pool.Gets() != done+uint64(depth) {
		res.problem("bio conservation: submitted=%d completed=%d (blk %d) recycled=%d, want %d in flight",
			pool.Gets(), done, q.Completions(), pool.Recycled(), depth)
	}
	if m.IOCost != nil {
		res.checkWeightOrder(m, s.loads)
	}
	return res
}

// checkWeightOrder checks that the cgroups' lifetime iocost usage follows
// the order of their weights.
func (r *repResult) checkWeightOrder(m *exp.Machine, loads []cgroupLoad) {
	usage := map[string]float64{}
	for _, st := range m.IOCost.Snapshot() {
		usage[st.Path] = st.CostUsageNS
	}
	for i := 1; i < len(loads); i++ {
		hi, lo := loads[i-1], loads[i]
		uh, ul := usage[m.Workload.Path()+"/"+hi.name], usage[m.Workload.Path()+"/"+lo.name]
		if hi.weight > lo.weight && !(uh > ul) {
			r.problem("iocost share order: %s (w%.0f) used %.0fns, not more than %s (w%.0f) %.0fns",
				hi.name, hi.weight, uh, lo.name, lo.weight, ul)
		}
	}
}

func (r *repResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// fleetSpec is the cluster-scale outcome-model run, in the shape of the
// fleet smoke test: a migration wave, a canary config push, and a slow-IO
// storm on racks 0 and 1.
type fleetSpec struct {
	hosts   int
	workers int
}

const (
	fleetTicks = 8
	fleetOps   = 20
)

func fleetOutcome(hosts, workers int) workload {
	f := fleetSpec{hosts: hosts, workers: workers}
	return workload{name: "fleet-outcome", headline: "hosts_per_s", workers: workers, setup: f.setup}
}

func (f fleetSpec) setup(seed uint64, tr *tracer) (func() (repResult, error), error) {
	sp := tr.begin("fleet.Validate")
	defer tr.end(sp)
	plan, err := fault.ParsePlan("slow:at=4s,dur=2s,factor=10")
	if err != nil {
		return nil, err
	}
	cfg := fleet.ClusterConfig{
		Hosts:          f.hosts,
		Ticks:          fleetTicks,
		TickDur:        sim.Second,
		OpsPerHostTick: fleetOps,
		Seed:           seed,
		Workers:        f.workers,
		Kind:           fleet.PackageFetch,
		Migration:      &fleet.MigrationWave{StartTick: 0, Ticks: fleetTicks},
		// iocost-fleet -push with its default canary fraction.
		Push: &fleet.ConfigPush{
			StartTick:  fleetTicks / 4,
			CanaryFrac: 0.05,
			RampTicks:  fleetTicks / 4,
			FailFactor: 0.85,
			LatFactor:  0.95,
		},
		Storms: []fleet.FaultStorm{{Racks: []int{0, 1}, Plan: plan}},
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return func() (repResult, error) { return f.run(cfg, tr) }, nil
}

func (f fleetSpec) run(cfg fleet.ClusterConfig, tr *tracer) (repResult, error) {
	sp := tr.begin("fleet.RunCluster")
	s, err := fleet.RunCluster(cfg)
	tr.end(sp)
	if err != nil {
		return repResult{ops: 1, opFails: 1}, err
	}
	sp = tr.begin("fleet.Summary.Format")
	text := s.Format()
	tr.end(sp)
	res := repResult{
		ops:    1,
		work:   float64(s.Hosts),
		simS:   float64(s.Hosts) * float64(s.Ticks) * s.TickDur.Seconds(),
		digest: text,
		counts: map[string]float64{"fleet.host_ticks": float64(s.Hosts * s.Ticks)},
	}
	var ops uint64
	for _, t := range s.PerTick {
		ops += t.Ops
	}
	want := uint64(cfg.Hosts) * fleetTicks * fleetOps
	if s.Hosts != cfg.Hosts || ops != want || s.Latency.Count() != ops {
		res.problem("fleet accounting: hosts=%d ops=%d latency samples=%d, want hosts=%d ops=%d",
			s.Hosts, ops, s.Latency.Count(), cfg.Hosts, want)
	}
	return res, nil
}

// tuneWarmup is tune.Options' documented default warm-up, set explicitly
// because the search result does not report it and branch_sim_s needs it.
const tuneWarmup = 200 * sim.Millisecond

// tuneSpec is one tune.Search recommendation on scenario fleet-a.
type tuneSpec struct {
	opts tune.Options
}

// tuneFleetA runs the search with opts (zero selects the defaults) at the
// given fan-out width.
func tuneFleetA(opts tune.Options, workers int) workload {
	if opts.Warmup == 0 {
		opts.Warmup = tuneWarmup
	}
	opts.Workers = workers
	t := tuneSpec{opts: opts}
	return workload{name: "tune-fleet-a", headline: "recommend_s", workers: workers, setup: t.setup}
}

func (t tuneSpec) setup(seed uint64, tr *tracer) (func() (repResult, error), error) {
	sp := tr.begin("tune.ScenarioByName")
	defer tr.end(sp)
	sc, err := tune.ScenarioByName("fleet-a")
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opts := t.opts
	opts.Seed = seed
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return func() (repResult, error) { return t.run(sc, opts, tr) }, nil
}

func (t tuneSpec) run(sc tune.Scenario, opts tune.Options, tr *tracer) (repResult, error) {
	sp := tr.begin("tune.Search")
	// Progress fires on this goroutine after each stage completes, so the
	// time since the previous call is that stage's.
	from := tr.now()
	opts.Progress = func(key, _ string, _ ...any) {
		to := tr.now()
		tr.add("tune.stage."+key, from, to)
		from = to
	}
	res, err := tune.Search(sc, opts)
	tr.end(sp)
	if err != nil {
		return repResult{ops: 1, opFails: 1}, err
	}
	sp = tr.begin("tune.Report.JSON")
	js, err := res.Report().JSON()
	tr.end(sp)
	if err != nil {
		return repResult{ops: 1, opFails: 1}, err
	}
	var branch sim.Time
	for _, r := range res.Rounds {
		branch += sim.Time(r.Candidates) * (r.Window + opts.Warmup)
	}
	out := repResult{
		ops:    1,
		work:   1,
		simS:   branch.Seconds(),
		digest: string(js),
		counts: map[string]float64{
			"tune.evals":        float64(res.Evals),
			"tune.branch_sim_s": branch.Seconds(),
		},
	}
	if _, err := tune.ParseReport(js); err != nil {
		out.problem("tune report: %v", err)
	}
	return out, nil
}
