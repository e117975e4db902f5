package flight_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/flight"
	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/slo"
	"github.com/iocost-sim/iocost/internal/trace"
	"github.com/iocost-sim/iocost/internal/tune"
	"github.com/iocost-sim/iocost/internal/workload"
)

// stormPlan is a compressed aging-SSD storm for sub-second test runs.
func stormPlan() fault.Plan {
	return fault.Plan{Episodes: []fault.Episode{
		{Kind: fault.Slow, At: 200 * sim.Millisecond, Dur: 300 * sim.Millisecond, Factor: 10},
		{Kind: fault.Error, At: 200 * sim.Millisecond, Dur: 300 * sim.Millisecond, Rate: 0.01},
	}}
}

// newStormMachine builds the contention scenario with a flight recorder and
// an injected storm.
func newStormMachine(t *testing.T, fc flight.Config, plan fault.Plan) *exp.Machine {
	t.Helper()
	spec := device.OlderGenSSD()
	m := exp.MustNewMachine(exp.MachineConfig{
		Device:     exp.DeviceChoice{SSD: &spec},
		Controller: exp.KindIOCost,
		Seed:       1,
		Faults:     plan,
		Flight:     &fc,
	})
	hi := m.Workload.NewChild("hi", 200)
	lo := m.Workload.NewChild("lo", 100)
	workload.NewSaturator(m.Q, workload.SaturatorConfig{
		CG: hi, Op: bio.Read, Pattern: workload.Random,
		Size: 4096, Depth: 16, Region: 0, Seed: 2,
	}).Start()
	workload.NewSaturator(m.Q, workload.SaturatorConfig{
		CG: lo, Op: bio.Read, Pattern: workload.Random,
		Size: 4096, Depth: 16, Region: 1 << 40, Seed: 3,
	}).Start()
	return m
}

// TestStormAutoBundle pins the acceptance criterion end to end: a machine
// under an injected storm auto-captures an incident bundle at storm onset,
// and the bundle's span blame attributes the tail to the episodes.
func TestStormAutoBundle(t *testing.T) {
	m := newStormMachine(t, flight.Config{
		Window:     sim.Second,
		CheckEvery: 50 * sim.Millisecond,
	}, stormPlan())
	m.Run(600 * sim.Millisecond)

	inc := m.Flight.Incidents()
	if len(inc) == 0 {
		t.Fatal("storm run captured no incidents")
	}
	b := inc[0]
	if !strings.HasPrefix(b.Reason, "fault-storm-start:") {
		t.Fatalf("first incident reason %q, want fault-storm-start:*", b.Reason)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Blame == nil || b.Blame.Spans == 0 {
		t.Fatal("bundle carries no span blame")
	}
	if len(b.Registry) == 0 {
		t.Fatal("bundle carries no registry scrape")
	}
	if b.Meta["seed"] != "1" || b.Meta["controller"] != "iocost" {
		t.Fatalf("bundle meta %v, want machine-derived seed/controller", b.Meta)
	}
	// A second trigger can also capture mid-storm attribution; the onset
	// bundle captures the lead-in, so fault attribution may still be tiny
	// there. Check the machine-wide picture instead: rebuild blame over
	// the full ring at end of run.
	full := flight.BundleFromTrace(m.Flight.TraceRecorder().Trace(), "end-of-run",
		m.Eng.Now(), 0, stormPlan(), nil)
	if full.Blame.System.FaultFrac <= 0 {
		t.Fatalf("no fault attribution in end-of-run blame: %+v", full.Blame.System)
	}
}

// TestStormBundleDeterministic pins that two identical storm runs produce
// byte-identical incident bundles — the property `make incident-smoke`
// checks via the CLI.
func TestStormBundleDeterministic(t *testing.T) {
	run := func() []byte {
		m := newStormMachine(t, flight.Config{
			Window:     sim.Second,
			CheckEvery: 50 * sim.Millisecond,
		}, stormPlan())
		m.Run(600 * sim.Millisecond)
		inc := m.Flight.Incidents()
		if len(inc) == 0 {
			t.Fatal("no incidents")
		}
		data, err := inc[0].Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different bundles")
	}
}

// traceBytes runs the contention scenario with an explicit main trace and
// optionally a flight recorder, returning the main trace's encoded bytes.
func traceBytes(t *testing.T, fc *flight.Config, disable bool) []byte {
	t.Helper()
	spec := device.OlderGenSSD()
	m := exp.MustNewMachine(exp.MachineConfig{
		Device:     exp.DeviceChoice{SSD: &spec},
		Controller: exp.KindIOCost,
		Seed:       1,
		Trace:      true,
		Flight:     fc,
	})
	w := m.Workload.NewChild("w", 300)
	workload.NewSaturator(m.Q, workload.SaturatorConfig{
		CG: w, Op: bio.Read, Pattern: workload.Random,
		Size: 4096, Depth: 16, Region: 0, Seed: 2,
	}).Start()
	if disable && m.Flight != nil {
		m.Flight.SetEnabled(false)
	}
	m.Run(200 * sim.Millisecond)
	return trace.Encode(m.Trace.Trace())
}

// TestStreamSeparation pins the PR 5/7 convention for observability
// streams: enabling (or disabling) the flight recorder never changes the
// main trace — and a disabled recorder is byte-identical to no recorder.
func TestStreamSeparation(t *testing.T) {
	bare := traceBytes(t, nil, false)
	enabled := traceBytes(t, &flight.Config{CheckEvery: 50 * sim.Millisecond}, false)
	disabled := traceBytes(t, &flight.Config{CheckEvery: 50 * sim.Millisecond}, true)
	if !bytes.Equal(bare, enabled) {
		t.Fatal("enabling the flight recorder changed the main trace")
	}
	if !bytes.Equal(bare, disabled) {
		t.Fatal("a disabled flight recorder is not byte-identical to no recorder")
	}
}

// rig is a hand-driven registry for trigger tests (same shape as the tune
// daemon's test rig — the two subsystems share trigger semantics).
type rig struct {
	eng    *sim.Engine
	reg    *registry.Registry
	vrate  float64
	press  float64
	faults float64
}

func newRig() *rig {
	r := &rig{eng: sim.New(), reg: registry.New(), vrate: 1}
	r.reg.GaugeFunc("iocost_vrate", "test", nil, func() float64 { return r.vrate })
	r.reg.Collector("io_pressure_full_avg10", registry.Gauge, "test",
		func(emit func([]registry.Label, float64)) {
			emit(registry.L("scope", "system"), r.press)
		})
	r.reg.CounterFunc("fault_errors_total", "test", registry.L("device", "dev0"),
		func() float64 { return r.faults })
	return r
}

func newRigRecorder(t *testing.T, r *rig, cfg flight.Config) *flight.Recorder {
	t.Helper()
	fl, err := flight.New(r.eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.BindRegistry(r.reg); err != nil {
		t.Fatal(err)
	}
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestTriggerHysteresis pins flight triggers onto the shared slo.Hysteresis
// semantics: consecutive-breach arming, cooldown, and priority order.
func TestTriggerHysteresis(t *testing.T) {
	r := newRig()
	fl := newRigRecorder(t, r, flight.Config{
		CheckEvery: sim.Second, Consec: 2, Cooldown: 5 * sim.Second,
		VrateFloor: 0.3, PressureCeil: 50,
	})

	// Healthy: no incidents.
	r.eng.RunUntil(3*sim.Second + sim.Second/2)
	if n := len(fl.Incidents()); n != 0 {
		t.Fatalf("healthy machine captured %d incidents", n)
	}

	// Vrate collapse: breaches at t=4s and 5s, snapshot at the second.
	r.vrate = 0.25
	r.eng.RunUntil(5*sim.Second + sim.Second/2)
	inc := fl.Incidents()
	if len(inc) != 1 || inc[0].Reason != "vrate-collapse" {
		t.Fatalf("after collapse: %d incidents, first %v", len(inc), inc)
	}

	// Still collapsed inside the cooldown: no second snapshot.
	r.eng.RunUntil(7*sim.Second + sim.Second/2)
	if n := len(fl.Incidents()); n != 1 {
		t.Fatalf("cooldown not honored: %d incidents", n)
	}

	// Recovered vrate, pressure spike: snapshot after cooldown expiry,
	// priority names the pressure trigger.
	r.vrate = 1
	r.press = 80
	r.eng.RunUntil(12*sim.Second + sim.Second/2)
	inc = fl.Incidents()
	if len(inc) != 2 || inc[1].Reason != "pressure-spike" {
		t.Fatalf("after spike: %d incidents, reasons %s/%s",
			len(inc), inc[0].Reason, inc[len(inc)-1].Reason)
	}
}

// TestMaxIncidents pins the memory bound: snapshots beyond the cap are
// counted but dropped.
func TestMaxIncidents(t *testing.T) {
	r := newRig()
	fl := newRigRecorder(t, r, flight.Config{
		CheckEvery: sim.Second, MaxIncidents: 2,
	})
	for i := 0; i < 5; i++ {
		fl.Trigger("manual")
	}
	if n := len(fl.Incidents()); n != 2 {
		t.Fatalf("kept %d incidents, want 2", n)
	}
	if fl.Triggered != 5 || fl.DroppedIncidents != 3 {
		t.Fatalf("triggered=%d dropped=%d, want 5/3", fl.Triggered, fl.DroppedIncidents)
	}
	// Disabled recorder triggers nothing.
	fl.SetEnabled(false)
	if b := fl.Trigger("manual"); b != nil {
		t.Fatal("disabled recorder produced a bundle")
	}
}

// TestSLOTrigger pins the slo-burn trigger: a registry whose error counters
// burn the budget snapshots with reason slo-burn.
func TestSLOTrigger(t *testing.T) {
	r := newRig()
	var completions, errors float64
	r.reg.CounterFunc("blk_completions_total", "test", nil, func() float64 { return completions })
	r.reg.CounterFunc("blk_errors_total", "test", nil, func() float64 { return errors })
	r.reg.CounterFunc("blk_timeouts_total", "test", nil, func() float64 { return 0 })
	fl := newRigRecorder(t, r, flight.Config{
		CheckEvery: 250 * sim.Millisecond, Consec: 2,
		Rules: []slo.Rule{{
			Name: "page", Target: 0.99, Short: sim.Second, Long: 2 * sim.Second, Burn: 5,
		}},
	})
	outage := false
	r.eng.NewTicker(250*sim.Millisecond, func() {
		completions += 100
		if outage {
			errors += 50
		}
	})
	r.eng.RunUntil(2 * sim.Second)
	if len(fl.Incidents()) != 0 {
		t.Fatal("healthy run captured incidents")
	}
	outage = true
	r.eng.RunUntil(6 * sim.Second)
	inc := fl.Incidents()
	if len(inc) == 0 || inc[0].Reason != "slo-burn" {
		t.Fatalf("no slo-burn incident: %d captured", len(inc))
	}
	if len(inc[0].Alerts) == 0 {
		t.Fatal("slo-burn bundle carries no alert history")
	}
}

// TestBundleFiles pins on-disk capture: bundles land in Dir with sanitized
// names and survive a read-validate round trip.
func TestBundleFiles(t *testing.T) {
	dir := t.TempDir()
	r := newRig()
	fl := newRigRecorder(t, r, flight.Config{Dir: dir})
	fl.Trigger("fault-storm-start:slow")
	files, err := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("glob: %v, files %v", err, files)
	}
	want := filepath.Join(dir, "incident-000-fault-storm-start-slow.json")
	if files[0] != want {
		t.Fatalf("incident file %q, want %q", files[0], want)
	}
	b, err := flight.ReadBundle(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "fault-storm-start:slow" {
		t.Fatalf("round-tripped reason %q", b.Reason)
	}
}

// TestBundleValidation pins schema rejection: wrong version, corrupt trace
// payload, malformed JSON.
func TestBundleValidation(t *testing.T) {
	r := newRig()
	fl := newRigRecorder(t, r, flight.Config{})
	b := fl.Trigger("manual")
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flight.DecodeBundle(data); err != nil {
		t.Fatal(err)
	}
	if _, err := flight.DecodeBundle([]byte("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	bad := strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)
	if _, err := flight.DecodeBundle([]byte(bad)); err == nil {
		t.Fatal("future version accepted")
	}
	bad = strings.Replace(string(data), `"trace_b64": "`, `"trace_b64": "!!!`, 1)
	if _, err := flight.DecodeBundle([]byte(bad)); err == nil {
		t.Fatal("corrupt trace payload accepted")
	}
	bad = strings.Replace(string(data), `"reason": "manual"`, `"reason": ""`, 1)
	if _, err := flight.DecodeBundle([]byte(bad)); err == nil {
		t.Fatal("empty reason accepted")
	}
}

// TestConfigValidate pins config rejection.
func TestConfigValidate(t *testing.T) {
	for _, bad := range []flight.Config{
		{Cap: -1},
		{Window: -1},
		{CheckEvery: -1},
		{Cooldown: -1},
		{Consec: -1},
		{MaxIncidents: -1},
		{VrateFloor: -1},
		{PressureCeil: -1},
		{FaultCeil: -1},
		{Rules: []slo.Rule{{Name: ""}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v validated", bad)
		}
	}
	// Metric triggers without a registry refuse to start.
	fl, err := flight.New(sim.New(), flight.Config{VrateFloor: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Start(); err == nil {
		t.Fatal("started with triggers but no registry")
	}
}

// TestDaemonNotifyTrigger wires a tune daemon's re-tune notification into
// the flight recorder: every accepted re-tune snapshots the machine state
// that led to it, tagged retune:<trigger>.
func TestDaemonNotifyTrigger(t *testing.T) {
	m := newStormMachine(t, flight.Config{
		Window:     sim.Second,
		CheckEvery: 50 * sim.Millisecond,
	}, stormPlan())
	d, err := tune.NewDaemon(m.Eng, m.Registry, tune.Policy{
		CheckEvery: 50 * sim.Millisecond,
		Cooldown:   sim.Second,
		Consec:     1,
		FaultCeil:  1, // the storm's error episode breaches this
	}, func(trigger string) (core.QoS, bool) {
		return core.DefaultQoS(), true
	}, func(core.QoS) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.SetNotify(func(trigger string) { m.Flight.Trigger("retune:" + trigger) })
	d.Start()

	m.Run(600 * sim.Millisecond)
	if d.Retunes == 0 {
		t.Fatal("daemon never re-tuned under the storm")
	}
	// The recorder also files its own fault-storm-start bundles (the plan
	// rides in from MachineConfig.Faults); count just the notify-driven ones.
	var retunes []*flight.Bundle
	for _, b := range m.Flight.Incidents() {
		if strings.HasPrefix(b.Reason, "retune:") {
			retunes = append(retunes, b)
		}
	}
	if len(retunes) != d.Retunes {
		t.Fatalf("%d retune incidents for %d re-tunes", len(retunes), d.Retunes)
	}
	if err := retunes[0].Validate(); err != nil {
		t.Fatal(err)
	}
}
