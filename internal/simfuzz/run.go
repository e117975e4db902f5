package simfuzz

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/check"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/flight"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/trace"
)

// drainHorizon bounds how long past the last arrival a controller may take
// to finish the backlog. Generation floors (throttle IOPS limits, weight
// ranges, tree depth) keep real worst-case drain far below this, so hitting
// the horizon means bios are stuck, not slow.
const drainHorizon = 120 * sim.Second

// RunResult is one controller's execution of a scenario.
type RunResult struct {
	Kind        string
	Completions int
	PerGroup    []int
	// Makespan is the completion time of the last bio.
	Makespan sim.Time
	// MaxWait is the longest any bio was held by the controller before
	// being issued toward the device.
	MaxWait sim.Time
	// Violations are sanitizer findings plus harness-level failures
	// (drain timeouts).
	Violations []string
	Drained    bool
	// Failed counts bios whose final completion carried a failure status
	// (retries exhausted); only faulted scenarios produce any.
	Failed int
}

// mutateCtl, when non-nil, wraps every controller under test. The
// fault-injection tests use it to prove that a violation anywhere in the
// stack surfaces through the harness and reproduces from its seed.
var mutateCtl func(blk.Controller) blk.Controller

func buildDevice(eng *sim.Engine, scn Scenario) device.Device {
	return deviceChoice(scn).New(eng, scn.DevSeed)
}

// deviceChoice maps a fuzz scenario's device draw onto the shared exp
// catalog — the same vocabulary every -device flag resolves through.
func deviceChoice(scn Scenario) exp.DeviceChoice {
	var name string
	switch scn.Dev.Kind {
	case "ssd":
		switch scn.Dev.Profile {
		case "NewerGenSSD":
			name = "newer-gen"
		case "EnterpriseSSD":
			name = "enterprise"
		default:
			name = "older-gen"
		}
	case "hdd":
		name = "hdd"
	case "remote":
		name = "ebs-gp3"
	default:
		panic(fmt.Sprintf("simfuzz: unknown device kind %q", scn.Dev.Kind))
	}
	choice, err := exp.ParseDevice(name)
	if err != nil {
		panic(fmt.Sprintf("simfuzz: %v", err))
	}
	return choice
}

// buildController constructs the controller under test through the ctl
// registry — the same path the cmds and exp harness use — then applies the
// scenario's per-group configuration for the kinds that take any.
func buildController(kind string, scn Scenario, nodes []*cgroup.Node) blk.Controller {
	var cfg ctl.Config
	if kind == exp.KindIOCost {
		cfg.Custom = iocostCoreConfig(scn)
	}
	c, err := ctl.New(kind, cfg)
	if err != nil {
		panic(fmt.Sprintf("simfuzz: %v", err))
	}
	switch cc := c.(type) {
	case *ctl.Throttle:
		for i, g := range scn.Groups {
			if g.ReadIOPS > 0 || g.WriteIOPS > 0 {
				cc.SetLimits(nodes[i], ctl.ThrottleLimits{
					ReadIOPS:  g.ReadIOPS,
					WriteIOPS: g.WriteIOPS,
				})
			}
		}
	case *ctl.IOLatency:
		for i, g := range scn.Groups {
			if g.LatTargetMS > 0 {
				cc.SetTarget(nodes[i], sim.Time(g.LatTargetMS*float64(sim.Millisecond)))
			}
		}
	}
	return c
}

// iocostCoreConfig derives the iocost cost model and QoS targets for the
// scenario's device: the same defaults an exp.MachineConfig would pick.
func iocostCoreConfig(scn Scenario) core.Config {
	params, qos := deviceChoice(scn).IOCostDefaults()
	return core.Config{Model: core.MustLinearModel(params), QoS: qos}
}

// Run executes the scenario under one controller with the sanitizer enabled
// and returns what happened. It is fully deterministic in the scenario.
func Run(scn Scenario, kind string) RunResult {
	res, _ := run(scn, kind, false)
	return res
}

// Capture is Run with a telemetry recorder attached: it returns the full
// bio life-cycle (and, under iocost, controller-event) trace alongside the
// result. Recording is read-only, so the schedule — and therefore the
// result — is identical to Run's.
func Capture(scn Scenario, kind string) (RunResult, *trace.Trace) {
	return run(scn, kind, true)
}

func run(scn Scenario, kind string, capture bool) (RunResult, *trace.Trace) {
	res := RunResult{Kind: kind, PerGroup: make([]int, len(scn.Groups))}
	eng := sim.New()
	dev := buildDevice(eng, scn)
	faulted := len(scn.Faults) > 0
	if faulted {
		inj, err := fault.NewInjector(eng, dev, scn.FaultPlan(),
			rng.DeriveSeed(scn.Seed, tagFaultInject))
		if err != nil {
			// Plans are validated at parse and generation time.
			panic(fmt.Sprintf("simfuzz: %v", err))
		}
		dev = inj
	}
	hier := cgroup.NewHierarchy()

	nodes := make([]*cgroup.Node, len(scn.Groups))
	for i, g := range scn.Groups {
		parent := hier.Root()
		if g.Parent >= 0 {
			parent = nodes[g.Parent]
		}
		nodes[i] = parent.NewChild(g.Name, g.Weight)
	}

	inner := buildController(kind, scn, nodes)
	if mutateCtl != nil {
		inner = mutateCtl(inner)
	}
	san := check.Wrap(inner, check.Options{
		Hier:      hier,
		Fail:      func(msg string) { res.Violations = append(res.Violations, msg) },
		DeepEvery: 4,
	})
	q := blk.New(eng, dev, san, scn.Tags)
	if faulted {
		// Failure semantics on: deadlines, bounded retries with backoff.
		q.SetRetryPolicy(blk.DefaultRetryPolicy())
	}

	// The recorder stacks behind the sanitizer's observer; both are
	// read-only, so captured runs execute the exact same schedule.
	var rec *trace.Recorder
	if capture {
		rec = trace.NewRecorder(eng, 0)
		rec.Attach(q)
		if ioc, ok := inner.(*core.Controller); ok {
			ioc.SetEventSink(rec)
		}
	}

	for _, ev := range scn.Weights {
		ev := ev
		eng.At(ev.At, func() { nodes[ev.Group].SetWeight(ev.Weight) })
	}

	outstanding := 0
	for _, ev := range scn.Submits {
		ev := ev
		outstanding++
		eng.At(ev.At, func() {
			q.Submit(&bio.Bio{
				Op:    bio.Op(ev.Op),
				Flags: bio.Flags(ev.Flags),
				Off:   ev.Off,
				Size:  ev.Size,
				CG:    nodes[ev.Group],
				OnDone: func(b *bio.Bio) {
					outstanding--
					res.Completions++
					res.PerGroup[ev.Group]++
					if b.Failed() {
						res.Failed++
					}
					if b.Completed > res.Makespan {
						res.Makespan = b.Completed
					}
					if w := b.WaitLatency(); w > res.MaxWait {
						res.MaxWait = w
					}
				},
			})
		})
	}

	// Run through the arrival schedule, then drain in bounded steps so a
	// stuck bio turns into a drain-timeout failure rather than a hang.
	horizon := scn.Horizon()
	eng.RunUntil(horizon)
	for step := sim.Time(0); outstanding > 0 && step < drainHorizon; step += 500 * sim.Millisecond {
		eng.RunUntil(horizon + step + 500*sim.Millisecond)
	}
	res.Drained = outstanding == 0

	san.CheckNow()
	san.CheckDrained()
	if !res.Drained {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%s: %d of %d bios still outstanding %v after last arrival",
				kind, outstanding, len(scn.Submits), drainHorizon))
	}
	if rec != nil {
		return res, rec.Trace()
	}
	return res, nil
}

// RunAll executes the scenario under every controller kind.
func RunAll(scn Scenario) []RunResult {
	results := make([]RunResult, 0, len(exp.AllKinds()))
	for _, kind := range exp.AllKinds() {
		results = append(results, Run(scn, kind))
	}
	return results
}

// workConserving lists the kinds the differential makespan check applies
// to. blk-throttle and iolatency may legitimately idle the device
// (Table 1), so they are only checked for completion, not timeliness.
func workConserving(kind string) bool {
	switch kind {
	case exp.KindNone, exp.KindMQDL, exp.KindKyber, exp.KindBFQ, exp.KindIOCost:
		return true
	}
	return false
}

// noContentionWaitBound is the longest IOCost may hold any bio in a
// no-contention scenario: a couple of planning periods of slack on top of
// an uncontended issue path that should not wait at all.
const noContentionWaitBound = 250 * sim.Millisecond

// TraceDumpDir is where Check writes a telemetry trace for each failing
// controller, next to the replay command in the failure text. Empty
// disables auto-dump. Defaults to the OS temp directory.
var TraceDumpDir = os.TempDir()

// Check runs the full differential harness for one scenario and returns
// failure descriptions, empty when the scenario passes. Each failure line
// carries the seed and replay command, plus (when TraceDumpDir is set) the
// path of an auto-captured telemetry trace of the failing run for
// inspection with cmd/iocost-trace.
func Check(scn Scenario) []string {
	results := RunAll(scn)
	faulted := len(scn.Faults) > 0
	replay := fmt.Sprintf("go test ./internal/simfuzz -run TestFuzzReplay -seed=%d", scn.Seed)
	if faulted {
		replay += " -faults"
	}
	var failures []string
	var failedKinds []string
	blame := func(kind, format string, args ...any) {
		failedKinds = append(failedKinds, kind)
		failures = append(failures,
			fmt.Sprintf("seed=%d ctl=%s: %s\n  replay: %s",
				scn.Seed, kind, fmt.Sprintf(format, args...), replay))
	}

	var noneMakespan sim.Time
	for _, r := range results {
		if r.Kind == exp.KindNone {
			noneMakespan = r.Makespan
		}
	}

	for _, r := range results {
		for _, v := range r.Violations {
			blame(r.Kind, "invariant violation: %s", v)
		}
		if !r.Drained {
			continue // already reported via Violations
		}
		if r.Completions != len(scn.Submits) {
			blame(r.Kind, "completed %d of %d bios", r.Completions, len(scn.Submits))
		}
		for g := range r.PerGroup {
			want := 0
			for _, ev := range scn.Submits {
				if ev.Group == g {
					want++
				}
			}
			if r.PerGroup[g] != want {
				blame(r.Kind, "group %s completed %d of %d bios",
					scn.Groups[g].Name, r.PerGroup[g], want)
			}
		}
		// Work conservation: a work-conserving controller must not take
		// wildly longer than no controller at all. BFQ's sync idling can
		// legitimately add up to SliceIdle per service slot, so it gets a
		// per-bio allowance on top of the generous shared bound. Faulted
		// scenarios skip the timeliness bounds: a stalled or capped device
		// legitimately violates them, and per-controller completion order
		// makes injected delay non-comparable across controllers.
		if workConserving(r.Kind) && noneMakespan > 0 && !faulted {
			bound := 10*noneMakespan + sim.Second
			if r.Kind == exp.KindBFQ {
				bound += sim.Time(len(scn.Submits)) * 2 * sim.Millisecond
			}
			if r.Makespan > bound {
				blame(r.Kind, "not work-conserving: makespan %v vs %v uncontrolled (bound %v)",
					r.Makespan, noneMakespan, bound)
			}
		}
		if scn.NoContention && !faulted && r.Kind == exp.KindIOCost && r.MaxWait > noContentionWaitBound {
			blame(r.Kind, "held a bio %v under no contention (bound %v)",
				r.MaxWait, noContentionWaitBound)
		}
	}

	// Auto-dump one telemetry trace per failing controller: re-run it with
	// the recorder attached (deterministic, so the trace shows exactly the
	// failing schedule) and point every matching failure at the file. An
	// incident bundle rides along beside it — the same artifact a flight
	// recorder would have captured, with span blame pre-built, so
	// `iocost-trace bundle` works on fuzz failures out of the box.
	if len(failures) > 0 && TraceDumpDir != "" {
		dumped := make(map[string]string)
		for i, kind := range failedKinds {
			path, ok := dumped[kind]
			if !ok {
				res, tr := Capture(scn, kind)
				path = filepath.Join(TraceDumpDir,
					fmt.Sprintf("simfuzz-seed%d-%s.trace", scn.Seed, kind))
				if err := trace.WriteFile(path, tr); err != nil {
					path = ""
				}
				if path != "" {
					b := flight.BundleFromTrace(tr, "simfuzz-failure", res.Makespan, 0,
						scn.FaultPlan(), map[string]string{
							"seed":       fmt.Sprint(scn.Seed),
							"controller": kind,
						})
					bpath := filepath.Join(TraceDumpDir,
						fmt.Sprintf("simfuzz-seed%d-%s-incident.json", scn.Seed, kind))
					if err := b.WriteFile(bpath); err == nil {
						path += "\n  bundle: " + bpath
					}
				}
				dumped[kind] = path
			}
			if path != "" {
				failures[i] += "\n  trace: " + path
			}
		}
	}
	return failures
}
