package fleet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
)

// goldenConfig is the small-but-complete cluster the determinism tests and
// the committed golden pin: migration wave, canary push, and a two-episode
// storm on rack 3, all inside 6 one-second ticks.
func goldenConfig() fleet.ClusterConfig {
	return fleet.ClusterConfig{
		Hosts:          192,
		RackSize:       16,
		ShardRacks:     2,
		Ticks:          6,
		TickDur:        sim.Second,
		OpsPerHostTick: 10,
		Seed:           0xf1ee7,
		Kind:           fleet.PackageFetch,
		Migration:      &fleet.MigrationWave{StartTick: 1, Ticks: 4},
		Push: &fleet.ConfigPush{
			StartTick: 2, CanaryFrac: 0.1, RampTicks: 2,
			FailFactor: 0.8, LatFactor: 0.9,
		},
		Storms: []fleet.FaultStorm{{
			Racks: []int{3},
			Plan: fault.Plan{Episodes: []fault.Episode{
				{Kind: fault.Slow, At: 2 * sim.Second, Dur: 2 * sim.Second, Factor: 8},
				{Kind: fault.Error, At: 3 * sim.Second, Dur: 1 * sim.Second, Rate: 0.2},
			}},
		}},
	}
}

func mustRun(t *testing.T, cfg fleet.ClusterConfig) *fleet.Summary {
	t.Helper()
	s, err := fleet.RunCluster(cfg)
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	return s
}

// TestClusterWorkerCountInvariance: the same fleet seed run with 1, 4, and
// 16 workers produces byte-identical merged summaries and identical
// monitor-facing exports. This is THE determinism contract of the sharded
// fleet: worker count is an execution detail, never an input.
func TestClusterWorkerCountInvariance(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 1
	ref := mustRun(t, cfg)
	refText := ref.Format()
	var refOM bytes.Buffer
	if err := ref.WriteOpenMetrics(&refOM); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{4, 16} {
		cfg.Workers = workers
		got := mustRun(t, cfg)
		if gotText := got.Format(); gotText != refText {
			t.Errorf("workers=%d: summary text differs from serial run:\n--- serial\n%s--- workers=%d\n%s",
				workers, refText, workers, gotText)
		}
		if !reflect.DeepEqual(got.Export(), ref.Export()) {
			t.Errorf("workers=%d: structured export differs from serial run", workers)
		}
		var om bytes.Buffer
		if err := got.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(om.Bytes(), refOM.Bytes()) {
			t.Errorf("workers=%d: OpenMetrics export differs from serial run", workers)
		}
	}
}

// TestClusterRepeatedRunsByteIdentical guards against any run-to-run
// nondeterminism (map iteration, shared state) sneaking into the fleet
// path: the class of bug PRs 1–4 kept finding elsewhere.
func TestClusterRepeatedRunsByteIdentical(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 8
	a := mustRun(t, cfg).Format()
	b := mustRun(t, cfg).Format()
	if a != b {
		t.Errorf("two identical runs produced different summaries:\n%s\nvs\n%s", a, b)
	}
}

// TestClusterGolden pins the merged summary rendering byte-for-byte.
// Refresh with UPDATE_FLEET_GOLDEN=1 go test ./internal/fleet — but a diff
// here usually means a determinism regression, not a stale fixture.
func TestClusterGolden(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 4
	checkGolden(t, "fleet_golden.txt", []byte(mustRun(t, cfg).Format()))
}

// TestClusterExportGolden pins the OpenMetrics and JSON export bytes of the
// golden cluster with sampled flight recorders on, so every optional
// family and section is rendered.
func TestClusterExportGolden(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 4
	cfg.Flight = &fleet.FleetFlight{SampleFrac: 0.25}
	s := mustRun(t, cfg)
	if s.FlightSampled == 0 || len(s.FlightIncidents) == 0 {
		t.Fatalf("flight sampling produced %d hosts, %d incidents; the golden would not cover the flight families",
			s.FlightSampled, len(s.FlightIncidents))
	}
	var om, js bytes.Buffer
	if err := s.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet_golden.om", om.Bytes())
	checkGolden(t, "fleet_golden.json", js.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// UPDATE_FLEET_GOLDEN=1.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_FLEET_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (UPDATE_FLEET_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from golden:\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// TestStormRackCorrelation: hosts sharing a rack-level fault plan observe
// identical episode windows and identical rack-level severity; hosts in
// other racks observe no storm at all.
func TestStormRackCorrelation(t *testing.T) {
	cfg := goldenConfig()
	// Hosts 48..63 are rack 3 (RackSize 16), the stormed rack.
	a, err := fleet.SimulateHost(cfg, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleet.SimulateHost(cfg, 63)
	if err != nil {
		t.Fatal(err)
	}
	other, err := fleet.SimulateHost(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawStorm := false
	for tick := range a {
		if a[tick].StormActive != b[tick].StormActive ||
			a[tick].StormFailProb != b[tick].StormFailProb ||
			a[tick].StormLatMult != b[tick].StormLatMult {
			t.Errorf("tick %d: rack-mates disagree on the storm: %+v vs %+v", tick, a[tick], b[tick])
		}
		sawStorm = sawStorm || a[tick].StormActive
		if other[tick].StormActive {
			t.Errorf("tick %d: host 0 (rack 0) observes a storm targeted at rack 3", tick)
		}
	}
	if !sawStorm {
		t.Error("storm plan never became active on its own rack")
	}
	// The windows must be exactly the plan's episodes mapped onto ticks:
	// active during ticks 2 and 3, not elsewhere.
	for tick, v := range a {
		want := tick == 2 || tick == 3
		if v.StormActive != want {
			t.Errorf("tick %d: StormActive=%v, want %v (plan covers [2s,4s))", tick, v.StormActive, want)
		}
	}
}

// TestStormStreamSeparation is the PR 5-style stream-separation pin at
// fleet scale, in two halves:
//
//  1. Disabling the plan (Disabled flag, or removing the storm entirely)
//     reproduces the healthy fleet byte-exactly.
//  2. With the storm enabled, the healthy draws are untouched: per-tick
//     healthy failure counts and every host's pressure series are
//     byte-identical to the storm-free run — injected failures ride on a
//     separate stream instead of perturbing the schedule.
func TestStormStreamSeparation(t *testing.T) {
	healthy := goldenConfig()
	healthy.Storms = nil
	disabled := goldenConfig()
	for i := range disabled.Storms {
		disabled.Storms[i].Disabled = true
	}
	stormy := goldenConfig()

	h := mustRun(t, healthy)
	d := mustRun(t, disabled)
	s := mustRun(t, stormy)

	if hf, df := h.Format(), d.Format(); hf != df {
		t.Errorf("disabled storm is not byte-identical to no storm:\n--- none\n%s--- disabled\n%s", hf, df)
	}

	for tick := range s.PerTick {
		healthyFails := s.PerTick[tick].Fails - s.PerTick[tick].StormFails
		if healthyFails != h.PerTick[tick].Fails {
			t.Errorf("tick %d: healthy failures changed under storm: %d vs %d",
				tick, healthyFails, h.PerTick[tick].Fails)
		}
		if s.PerTick[tick].Migrated != h.PerTick[tick].Migrated ||
			s.PerTick[tick].Pushed != h.PerTick[tick].Pushed {
			t.Errorf("tick %d: storm perturbed migration/push membership", tick)
		}
	}

	for _, host := range []int{0, 48, 63, 191} {
		hv, err := fleet.SimulateHost(healthy, host)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := fleet.SimulateHost(stormy, host)
		if err != nil {
			t.Fatal(err)
		}
		for tick := range hv {
			if hv[tick].Pressure != sv[tick].Pressure {
				t.Errorf("host %d tick %d: storm perturbed the pressure stream: %v vs %v",
					host, tick, hv[tick].Pressure, sv[tick].Pressure)
			}
			if hv[tick].HealthyFails != sv[tick].HealthyFails {
				t.Errorf("host %d tick %d: storm perturbed healthy failure draws: %d vs %d",
					host, tick, hv[tick].HealthyFails, sv[tick].HealthyFails)
			}
		}
	}
}

// TestStormAddsFailures: the enabled storm must actually hurt — otherwise
// the correlation tests above are vacuous.
func TestStormAddsFailures(t *testing.T) {
	s := mustRun(t, goldenConfig())
	var storm uint64
	for _, ts := range s.PerTick {
		storm += ts.StormFails
	}
	if storm == 0 {
		t.Error("storm injected zero failures across the run")
	}
	if s.PerTick[3].StormHosts != 16 {
		t.Errorf("tick 3 should see the full rack (16 hosts) under storm, got %d", s.PerTick[3].StormHosts)
	}
	if s.PerTick[0].StormHosts != 0 {
		t.Errorf("tick 0 predates the storm but reports %d stormy hosts", s.PerTick[0].StormHosts)
	}
}

// TestMigrationReducesFailures: rolling the default curves across the fleet
// reproduces the Figs 18/19 shape — failures fall as the migrated fraction
// grows, and membership is monotone.
func TestMigrationReducesFailures(t *testing.T) {
	cfg := fleet.ClusterConfig{
		Hosts: 2048, RackSize: 32, Ticks: 8, TickDur: sim.Second,
		OpsPerHostTick: 20, Seed: 11, Kind: fleet.PackageFetch,
		Migration: &fleet.MigrationWave{StartTick: 0, Ticks: 8},
	}
	s := mustRun(t, cfg)
	if s.Reduction() < 3 {
		t.Errorf("migration reduced failures only %.1fx; want >= 3x", s.Reduction())
	}
	last := -1
	for tick, ts := range s.PerTick {
		if ts.Migrated < last {
			t.Errorf("tick %d: migrated host count went backwards: %d after %d", tick, ts.Migrated, last)
		}
		last = ts.Migrated
	}
	if got := s.PerTick[len(s.PerTick)-1].Migrated; got != cfg.Hosts {
		t.Errorf("migration wave finished with %d/%d hosts migrated", got, cfg.Hosts)
	}
}

// TestCanaryPushRollout: the push covers roughly the canary fraction at its
// start tick and the whole fleet once the ramp completes.
func TestCanaryPushRollout(t *testing.T) {
	cfg := fleet.ClusterConfig{
		Hosts: 4096, RackSize: 32, Ticks: 6, TickDur: sim.Second,
		OpsPerHostTick: 5, Seed: 3, Kind: fleet.ContainerCleanup,
		Push: &fleet.ConfigPush{StartTick: 1, CanaryFrac: 0.05, RampTicks: 3, FailFactor: 0.7, LatFactor: 0.9},
	}
	s := mustRun(t, cfg)
	if got := s.PerTick[0].Pushed; got != 0 {
		t.Errorf("tick 0 predates the push but has %d pushed hosts", got)
	}
	canary := float64(s.PerTick[1].Pushed) / float64(cfg.Hosts)
	if canary < 0.03 || canary > 0.07 {
		t.Errorf("canary covered %.3f of the fleet, want ~0.05", canary)
	}
	if got := s.PerTick[5].Pushed; got != cfg.Hosts {
		t.Errorf("ramp complete but only %d/%d hosts pushed", got, cfg.Hosts)
	}
}

// TestClusterBoundedMemory: aggregation retains no per-host state, so the
// live heap after a run is bounded by the summary and batch buffers —
// independent of host count. A 16x bigger fleet must fit under the same
// ceiling. (The 100k-host CI variant lives in make fleet-smoke.)
func TestClusterBoundedMemory(t *testing.T) {
	const ceiling = 8 << 20 // bytes of retained growth allowed per run
	for _, hosts := range []int{2048, 32768} {
		cfg := fleet.ClusterConfig{
			Hosts: hosts, RackSize: 32, Ticks: 4, TickDur: sim.Second,
			OpsPerHostTick: 10, Seed: 5, Kind: fleet.PackageFetch, Workers: 4,
			Migration: &fleet.MigrationWave{StartTick: 0, Ticks: 4},
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := mustRun(t, cfg)
		runtime.GC()
		runtime.ReadMemStats(&after)
		if s.Hosts != hosts {
			t.Fatalf("summary covers %d hosts, want %d", s.Hosts, hosts)
		}
		growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if growth > ceiling {
			t.Errorf("hosts=%d: retained heap grew %d bytes (> %d): per-host state is leaking into the aggregate",
				hosts, growth, ceiling)
		}
		runtime.KeepAlive(s)
	}
}

// TestRackEnumerationOrder pins host/rack enumeration to creation order:
// ascending contiguous IDs, every host exactly once, RackOf consistent with
// RackHosts. (The map-iteration audit of internal/fleet found no maps; this
// test keeps the new topology honest.)
func TestRackEnumerationOrder(t *testing.T) {
	topo := fleet.Topology{Hosts: 100, RackSize: 16}
	if topo.Racks() != 7 {
		t.Fatalf("100 hosts / 16 per rack = 7 racks, got %d", topo.Racks())
	}
	next := 0
	for r := 0; r < topo.Racks(); r++ {
		lo, hi := topo.RackHosts(r)
		if lo != next {
			t.Errorf("rack %d starts at %d, want %d (contiguous creation order)", r, lo, next)
		}
		if hi <= lo {
			t.Errorf("rack %d is empty: [%d,%d)", r, lo, hi)
		}
		for h := lo; h < hi; h++ {
			if topo.RackOf(h) != r {
				t.Errorf("RackOf(%d) = %d, want %d", h, topo.RackOf(h), r)
			}
		}
		next = hi
	}
	if next != topo.Hosts {
		t.Errorf("enumeration covered %d hosts, want %d", next, topo.Hosts)
	}
}

func TestClusterValidate(t *testing.T) {
	bad := []fleet.ClusterConfig{
		{Hosts: -1},
		{OpsPerHostTick: -5},
		{TickDur: -sim.Second},
		{Push: &fleet.ConfigPush{CanaryFrac: 1.5}},
		{Push: &fleet.ConfigPush{FailFactor: -1}},
		{Storms: []fleet.FaultStorm{{Racks: []int{999}, Plan: fault.Plan{Episodes: []fault.Episode{
			{Kind: fault.Slow, At: 0, Dur: sim.Second, Factor: 2}}}}}},
		{Storms: []fleet.FaultStorm{{Racks: []int{0}, Plan: fault.Plan{Episodes: []fault.Episode{
			{Kind: fault.Error, At: 0, Dur: sim.Second, Rate: 7}}}}}},
	}
	for i, cfg := range bad {
		if _, err := fleet.RunCluster(cfg); err == nil {
			t.Errorf("config %d should have been rejected", i)
		}
	}
	if _, err := fleet.SimulateHost(fleet.ClusterConfig{Hosts: 10}, 10); err == nil {
		t.Error("SimulateHost accepted an out-of-range host")
	}
}
