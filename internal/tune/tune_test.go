package tune

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/sim"
)

// testOptions keeps searches fast enough for the unit suite while leaving
// the algorithm intact: real halving, real hill climbing, real final race.
func testOptions(workers int) Options {
	return Options{
		Seed:       42,
		Candidates: 8,
		Window:     250 * sim.Millisecond,
		Warmup:     150 * sim.Millisecond,
		HillRounds: 1, HillNeighbors: 3,
		Workers: workers,
	}
}

// TestTuneImproves pins the subsystem's reason to exist: on the pinned
// scenarios the auto-tuned config strictly beats the kernel default's
// objective score. Everything is deterministic, so these are exact-replay
// assertions, not statistical ones.
func TestTuneImproves(t *testing.T) {
	for _, sc := range []Scenario{FleetA(), HDD()} {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Search(sc, testOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: best %s score=%.3f default=%.3f hand=%.3f qos=%s",
				sc.Name, res.Best.Origin, res.Best.Score, res.Baseline.Score,
				res.HandTuned.Score, res.Best.QoS)
			if res.Best.Score <= res.Baseline.Score {
				t.Errorf("auto-tuned score %.4f does not beat default %.4f",
					res.Best.Score, res.Baseline.Score)
			}
			if res.Best.Score < res.HandTuned.Score {
				t.Errorf("auto-tuned score %.4f lost to hand-tuned %.4f",
					res.Best.Score, res.HandTuned.Score)
			}
			if err := res.Best.QoS.Validate(); err != nil {
				t.Errorf("recommended QoS invalid: %v", err)
			}
			rep := res.Report()
			if err := rep.Validate(); err != nil {
				t.Errorf("report does not validate: %v", err)
			}
		})
	}
}

// TestTuneDeterministic pins that the recommended-config JSON is
// byte-identical across repeated runs and worker counts — the fleet/fanout
// determinism contract extended to the tuner.
func TestTuneDeterministic(t *testing.T) {
	opts := testOptions(1)
	opts.Candidates = 6
	opts.Window = 200 * sim.Millisecond
	opts.Warmup = 100 * sim.Millisecond

	run := func(workers int) []byte {
		o := opts
		o.Workers = workers
		res, err := Search(FleetA(), o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	ref := run(1)
	for _, workers := range []int{1, 4, 16} {
		if got := run(workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d JSON differs from workers=1 run:\n%s\n---\n%s",
				workers, got, ref)
		}
	}
}

func TestSearchProgressAndRounds(t *testing.T) {
	opts := testOptions(4)
	opts.Candidates = 4
	opts.Window = 100 * sim.Millisecond
	opts.Warmup = 50 * sim.Millisecond
	var lines []string
	opts.Progress = func(key, format string, args ...any) {
		lines = append(lines, key+": "+fmt.Sprintf(format, args...))
	}
	res, err := Search(FleetA(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("no progress lines emitted")
	}
	if len(res.Rounds) == 0 || res.Rounds[len(res.Rounds)-1].Stage != "final" {
		t.Errorf("rounds = %+v, want a trailing final stage", res.Rounds)
	}
	if res.Evals < opts.Candidates {
		t.Errorf("evals = %d, want >= %d", res.Evals, opts.Candidates)
	}
	// Windows never shrink across halving rounds.
	var last sim.Time
	for _, rd := range res.Rounds {
		if rd.Window < last {
			t.Errorf("round window shrank: %+v", res.Rounds)
		}
		last = rd.Window
	}
}

func TestSearchRejectsBadInput(t *testing.T) {
	if _, err := Search(Scenario{Name: "x"}, Options{}); err == nil {
		t.Error("scenario without device accepted")
	}
	sc := FleetA()
	if _, err := Search(sc, Options{Objective: "nosuch"}); err == nil {
		t.Error("unknown objective accepted")
	}
	if _, err := ScenarioByName("nosuch"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := ObjectiveByName("nosuch"); err == nil {
		t.Error("unknown objective name accepted")
	}
	both := sc
	hdd := HDD()
	both.Device.HDD = hdd.Device.HDD
	if err := both.Validate(); err == nil {
		t.Error("scenario with two devices accepted")
	}
}

func TestObjectives(t *testing.T) {
	def, err := ObjectiveByName("")
	if err != nil || def.Name != "bulk-slo" {
		t.Fatalf("default objective = %v, %v", def.Name, err)
	}
	target := 2 * sim.Millisecond
	healthy := Measure{P99: sim.Millisecond, ProtIOPS: 1000, BulkBps: 100e6}
	blown := Measure{P99: 8 * sim.Millisecond, ProtIOPS: 1000, BulkBps: 100e6}
	starved := Measure{P99: 0, ProtIOPS: 0, BulkBps: 500e6}
	if s := def.Score(target, healthy); s != 100 {
		t.Errorf("healthy bulk-slo score = %v, want 100", s)
	}
	if s := def.Score(target, blown); s >= def.Score(target, healthy) {
		t.Errorf("blown-target score %v not penalized", s)
	}
	if s := def.Score(target, starved); s != 0 {
		t.Errorf("starved protected workload scored %v, want 0", s)
	}
	for _, o := range Objectives() {
		if o.Score(target, healthy) < 0 {
			t.Errorf("objective %s scores healthy measure negative", o.Name)
		}
	}
}

func TestReportValidate(t *testing.T) {
	model, hand := FleetA().Device.IOCostDefaults()
	res := &Result{
		Scenario: "fleet-a", Objective: "bulk-slo", Target: 2 * sim.Millisecond,
		Seed:  7,
		Model: model,
		Best: Candidate{QoS: core.DefaultQoS(), Origin: "hill-1.2", Score: 10,
			Meas: Measure{P99: sim.Millisecond, ProtIOPS: 100, BulkBps: 1e6, VrateMean: 1}},
		Baseline:  Candidate{QoS: core.DefaultQoS(), Origin: "default", Score: 5},
		HandTuned: Candidate{QoS: hand, Origin: "hand", Score: 7},
		Rounds: []Round{
			{Stage: "halving", Window: 100 * sim.Millisecond, Candidates: 8, BestScore: 4, BestOrigin: "hand"},
			{Stage: "final", Window: 400 * sim.Millisecond, Candidates: 3, BestScore: 10, BestOrigin: "hill-1.2"},
		},
		Evals: 11,
	}
	rep := res.Report()
	if err := rep.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(b)
	if err != nil {
		t.Fatalf("round-trip failed: %v", err)
	}
	if back.Best != rep.Best || len(back.Rounds) != len(rep.Rounds) {
		t.Fatal("round-trip changed the report")
	}

	bad := rep
	bad.Version = 2
	if bad.Validate() == nil {
		t.Error("wrong version accepted")
	}
	bad = rep
	bad.Best.QoS = "garbage"
	if bad.Validate() == nil {
		t.Error("unparseable qos accepted")
	}
	bad = rep
	bad.Rounds = nil
	if bad.Validate() == nil {
		t.Error("empty rounds accepted")
	}
	bad = rep
	bad.Rounds = []ReportRound{{Stage: "halving", WindowMs: 1, Candidates: 2, BestScore: 1}}
	if bad.Validate() == nil {
		t.Error("missing final round accepted")
	}
	bad = rep
	bad.Model = "rbps=1"
	if bad.Validate() == nil {
		t.Error("incomplete model accepted")
	}
	if _, err := ParseReport([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// daemonRig builds a daemon on a synthetic registry whose metric values the
// test drives directly.
type daemonRig struct {
	eng     *sim.Engine
	vrate   float64
	press   float64
	faults  float64
	applied []core.QoS
	d       *Daemon
}

func newDaemonRig(t *testing.T, pol Policy) *daemonRig {
	t.Helper()
	rig := &daemonRig{eng: sim.New(), vrate: 1.0}
	reg := registry.New()
	reg.GaugeFunc("iocost_vrate", "test", nil, func() float64 { return rig.vrate })
	reg.Collector("io_pressure_full_avg10", registry.Gauge, "test",
		func(emit func([]registry.Label, float64)) { emit(scopeSystem, rig.press) })
	reg.CounterFunc("fault_errors_total", "test", registry.L("device", "dev0"),
		func() float64 { return rig.faults })
	d, err := NewDaemon(rig.eng, reg, pol,
		func(trigger string) (core.QoS, bool) { return core.DefaultQoS(), true },
		func(q core.QoS) { rig.applied = append(rig.applied, q) },
		nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.d = d
	d.Start()
	return rig
}

func TestDaemonTriggers(t *testing.T) {
	pol := Policy{
		CheckEvery: sim.Second, Cooldown: 5 * sim.Second, Consec: 2,
		VrateFloor: 0.3, PressureCeil: 50, FaultCeil: 10,
	}
	rig := newDaemonRig(t, pol)

	// Healthy metrics: no re-tunes.
	rig.eng.RunUntil(3*sim.Second + sim.Second/2)
	if rig.d.Retunes != 0 {
		t.Fatalf("healthy machine re-tuned %d times", rig.d.Retunes)
	}

	// Vrate collapses: two consecutive breached checks (t=4s, 5s) fire one
	// re-tune.
	rig.vrate = 0.25
	rig.eng.RunUntil(5*sim.Second + sim.Second/2)
	if rig.d.Retunes != 1 || rig.d.LastTrigger != "vrate-collapse" {
		t.Fatalf("after collapse: retunes=%d trigger=%q", rig.d.Retunes, rig.d.LastTrigger)
	}

	// Still collapsed, but inside the cooldown: no second re-tune.
	rig.eng.RunUntil(7*sim.Second + sim.Second/2)
	if rig.d.Retunes != 1 {
		t.Fatalf("cooldown not honored: retunes=%d", rig.d.Retunes)
	}

	// Recovered vrate, pressure spike: next re-tune once cooldown passes.
	rig.vrate = 1.0
	rig.press = 80
	rig.eng.RunUntil(10*sim.Second + sim.Second/2)
	if rig.d.Retunes != 2 || rig.d.LastTrigger != "pressure-spike" {
		t.Fatalf("after spike: retunes=%d trigger=%q", rig.d.Retunes, rig.d.LastTrigger)
	}

	// Fault storm: error counter jumping >= 10/s for two checks.
	rig.press = 0
	for ts := 11 * sim.Second; ts <= 17*sim.Second; ts += sim.Second {
		rig.eng.RunUntil(ts + sim.Second/2)
		rig.faults += 50
	}
	if rig.d.Retunes != 3 || rig.d.LastTrigger != "fault-storm" {
		t.Fatalf("after storm: retunes=%d trigger=%q", rig.d.Retunes, rig.d.LastTrigger)
	}
	if len(rig.applied) != rig.d.Retunes {
		t.Fatalf("applied %d configs for %d retunes", len(rig.applied), rig.d.Retunes)
	}
}

// TestDaemonNotify pins that SetNotify hears every successful re-tune.
func TestDaemonNotify(t *testing.T) {
	rig := newDaemonRig(t, Policy{
		CheckEvery: sim.Second, Cooldown: 2 * sim.Second, Consec: 1,
		VrateFloor: 0.3,
	})
	var heard []string
	rig.d.SetNotify(func(trigger string) { heard = append(heard, trigger) })
	rig.vrate = 0.1
	rig.eng.RunUntil(6*sim.Second + sim.Second/2)
	if rig.d.Retunes == 0 {
		t.Fatal("no re-tunes happened")
	}
	if len(heard) != rig.d.Retunes {
		t.Fatalf("notify heard %d re-tunes, daemon did %d", len(heard), rig.d.Retunes)
	}
	if heard[0] != "vrate-collapse" {
		t.Fatalf("notify trigger %q, want vrate-collapse", heard[0])
	}
}

func TestDaemonMaxRetunesAndPolicySwap(t *testing.T) {
	pol := Policy{
		CheckEvery: sim.Second, Cooldown: sim.Second, Consec: 1,
		VrateFloor: 0.3, MaxRetunes: 1,
	}
	rig := newDaemonRig(t, pol)
	rig.vrate = 0.1
	rig.eng.RunUntil(10*sim.Second + sim.Second/2)
	if rig.d.Retunes != 1 {
		t.Fatalf("MaxRetunes=1 not honored: %d retunes", rig.d.Retunes)
	}

	if err := rig.d.SetPolicy(Policy{}); err == nil {
		t.Error("policy with no triggers accepted")
	}
	if err := rig.d.SetPolicy(Policy{VrateFloor: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
	pol.MaxRetunes = 2
	if err := rig.d.SetPolicy(pol); err != nil {
		t.Fatal(err)
	}
	rig.eng.RunUntil(12*sim.Second + sim.Second/2)
	if rig.d.Retunes != 2 {
		t.Fatalf("after policy swap: %d retunes, want 2", rig.d.Retunes)
	}

	// A swap right after a fire keeps the cooldown clock: the re-tune at
	// t=1s blocks the checks at 2s..5s under the new policy too, and the
	// next re-tune comes at 6s.
	pol = Policy{CheckEvery: sim.Second, Cooldown: 5 * sim.Second, Consec: 1, VrateFloor: 0.3}
	rig = newDaemonRig(t, pol)
	rig.vrate = 0.1
	rig.eng.RunUntil(sim.Second + sim.Second/2)
	if rig.d.Retunes != 1 {
		t.Fatalf("before swap: %d retunes, want 1", rig.d.Retunes)
	}
	pol.VrateFloor = 0.4
	if err := rig.d.SetPolicy(pol); err != nil {
		t.Fatal(err)
	}
	rig.eng.RunUntil(5*sim.Second + sim.Second/2)
	if rig.d.Retunes != 1 {
		t.Fatalf("policy swap re-tuned inside the cooldown: %d retunes, want 1", rig.d.Retunes)
	}
	rig.eng.RunUntil(6*sim.Second + sim.Second/2)
	if rig.d.Retunes != 2 {
		t.Fatalf("after the cooldown: %d retunes, want 2", rig.d.Retunes)
	}
}

func TestPolicyValidate(t *testing.T) {
	if (Policy{}).Validate() == nil {
		t.Error("trigger-less policy accepted")
	}
	if (Policy{CheckEvery: -1, VrateFloor: 1}).Validate() == nil {
		t.Error("negative period accepted")
	}
	if err := (Policy{VrateFloor: 0.5}).Validate(); err != nil {
		t.Errorf("minimal valid policy rejected: %v", err)
	}
}

func TestHandTunedFormulasMatchByDevice(t *testing.T) {
	// The hand-tuned HDD config is the one every experiment runs with;
	// pin its values so a drive-by edit cannot silently shift the tuned
	// vs hand-tuned comparison.
	q := core.HandTunedHDD()
	want := core.QoS{
		RPct: 90, RLat: 15 * sim.Millisecond,
		WPct: 90, WLat: 40 * sim.Millisecond,
		VrateMin: 0.1, VrateMax: 1.2,
	}
	if q != want {
		t.Errorf("HandTunedHDD = %+v, want %+v", q, want)
	}
	for _, sc := range Scenarios() {
		if err := sc.Validate(); err != nil {
			t.Errorf("built-in scenario %s invalid: %v", sc.Name, err)
		}
		model, hand := sc.Device.IOCostDefaults()
		if err := hand.Validate(); err != nil {
			t.Errorf("hand-tuned QoS for %s invalid: %v", sc.Name, err)
		}
		if err := model.Validate(); err != nil {
			t.Errorf("model for %s invalid: %v", sc.Name, err)
		}
	}
}
