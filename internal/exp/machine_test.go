package exp

import (
	"strings"
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

func TestNewMachineAllControllers(t *testing.T) {
	for _, kind := range AllKinds() {
		m := MustNewMachine(MachineConfig{
			Device:     ssdChoice(device.OlderGenSSD()),
			Controller: kind,
			Seed:       1,
		})
		if m.Ctl.Name() != kind && !(kind == "" && m.Ctl.Name() == KindNone) {
			t.Errorf("controller %q built as %q", kind, m.Ctl.Name())
		}
		if (m.IOCost != nil) != (kind == KindIOCost) {
			t.Errorf("%s: IOCost pointer presence wrong", kind)
		}
		// The Figure 1 hierarchy exists.
		if m.System == nil || m.HostCritical == nil || m.Workload == nil {
			t.Fatalf("%s: hierarchy slices missing", kind)
		}
		if m.Workload.Weight() != 850 {
			t.Errorf("workload weight = %v", m.Workload.Weight())
		}
	}
}

func TestNewMachineDeviceKinds(t *testing.T) {
	hdd := device.EvalHDD()
	remote := device.EBSgp3()
	for _, cfg := range []MachineConfig{
		{Device: ssdChoice(device.NewerGenSSD()), Controller: KindIOCost},
		{Device: DeviceChoice{HDD: &hdd}, Controller: KindIOCost},
		{Device: DeviceChoice{Remote: &remote}, Controller: KindIOCost},
	} {
		m := MustNewMachine(cfg)
		// The derived default QoS must be valid and the controller
		// functional: push one IO through.
		done := false
		m.Q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096,
			CG: m.Workload.NewChild("t", 100), OnDone: func(*bio.Bio) { done = true }})
		m.Run(sim.Second)
		if !done {
			t.Errorf("%s: IO never completed", m.Dev.Name())
		}
	}
}

func TestNewMachineErrorsWithoutDevice(t *testing.T) {
	if _, err := NewMachine(MachineConfig{Controller: KindIOCost}); err == nil {
		t.Error("no device did not error")
	}
}

func TestNewMachineErrorsOnUnknownController(t *testing.T) {
	_, err := NewMachine(MachineConfig{Device: ssdChoice(device.OlderGenSSD()), Controller: "wfq"})
	if err == nil {
		t.Fatal("unknown controller did not error")
	}
	// The error names the bad controller and lists what exists, so flag
	// users can fix their invocation without reading source.
	if !strings.Contains(err.Error(), "wfq") || !strings.Contains(err.Error(), KindIOCost) {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestMachineConfigValidate(t *testing.T) {
	good := MachineConfig{Device: ssdChoice(device.OlderGenSSD()), Controller: KindIOCost}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	hdd := device.EvalHDD()
	for name, cfg := range map[string]MachineConfig{
		"no device":   {Controller: KindIOCost},
		"two devices": {Device: DeviceChoice{SSD: good.Device.SSD, HDD: &hdd}},
		"bad ctl":     {Device: good.Device, Controller: "cfq"},
		"neg tags":    {Device: good.Device, Tags: -1},
		"bad fault": {Device: good.Device,
			Faults: fault.Plan{Episodes: []fault.Episode{{Kind: fault.Error, Dur: sim.Second, Rate: 2}}}},
		"neg retry": {Device: good.Device, Retry: &blk.RetryPolicy{MaxRetries: -1}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad config", name)
		}
	}
}

// TestMultiDeviceHost: two devices on one engine, each with its own iocost
// instance, as a host with a fast SSD and an HDD would run — per-device
// controllers are independent.
func TestMultiDeviceHost(t *testing.T) {
	eng := sim.New()
	fast := MustNewMachine(MachineConfig{
		Engine: eng, Device: ssdChoice(device.EnterpriseSSD()),
		Controller: KindIOCost, Seed: 1,
	})
	hdd := device.EvalHDD()
	slow := MustNewMachine(MachineConfig{
		Engine: eng, Device: DeviceChoice{HDD: &hdd},
		Controller: KindIOCost, Seed: 2,
	})
	if fast.Eng != slow.Eng {
		t.Fatal("machines did not share the engine")
	}

	wf := workload.NewSaturator(fast.Q, workload.SaturatorConfig{
		CG: fast.Workload.NewChild("a", 100), Op: bio.Read,
		Pattern: workload.Random, Size: 4096, Depth: 32, Seed: 1,
	})
	ws := workload.NewSaturator(slow.Q, workload.SaturatorConfig{
		CG: slow.Workload.NewChild("b", 100), Op: bio.Read,
		Pattern: workload.Random, Size: 4096, Depth: 4, Seed: 2,
	})
	wf.Start()
	ws.Start()
	eng.RunUntil(2 * sim.Second)

	if wf.Stats.Done < 100*ws.Stats.Done {
		t.Errorf("SSD (%d IOs) should dwarf HDD (%d IOs)", wf.Stats.Done, ws.Stats.Done)
	}
	if ws.Stats.Done == 0 {
		t.Error("HDD workload starved")
	}
	// The controllers are distinct instances with their own vrates.
	if fast.IOCost == slow.IOCost {
		t.Error("machines share a controller")
	}
}

func TestIdealParamsMatchProfiledDevice(t *testing.T) {
	// The analytic parameters must be close to what profiling measures —
	// they are two routes to the same ground truth.
	spec := device.NewerGenSSD()
	ideal := core.IdealSSDParams(spec)
	if ideal.RRandIOPS < 200000 || ideal.RRandIOPS > 300000 {
		t.Errorf("ideal rand read IOPS = %v", ideal.RRandIOPS)
	}
	if err := ideal.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := core.NewLinearModel(ideal)
	if err != nil {
		t.Fatal(err)
	}
	// 4k random read cost is 1s/IOPS by construction.
	got := m.Cost(bio.Read, 4096, false)
	want := 1e9 / ideal.RRandIOPS
	if got < want*0.999 || got > want*1.001 {
		t.Errorf("cost = %v, want %v", got, want)
	}
}
