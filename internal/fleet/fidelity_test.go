package fleet_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
)

// sampledConfig is the golden cluster with a 5% slice of hosts promoted to
// full exp.Machine fidelity.
func sampledConfig() fleet.ClusterConfig {
	cfg := goldenConfig()
	cfg.Fidelity = fleet.Fidelity{
		Mode:       fleet.FidelitySampled,
		SampleFrac: 0.05,
		Machine:    exp.NewFleetHost,
	}
	return cfg
}

// TestSampledWorkerCountInvariance is the headline determinism contract of
// the fidelity work: with real machines in the mix, worker count is still
// an execution detail. The same sampled config at 1, 4, and 16 workers must
// produce byte-identical text and OpenMetrics output.
func TestSampledWorkerCountInvariance(t *testing.T) {
	cfg := sampledConfig()
	cfg.Workers = 1
	ref := mustRun(t, cfg)
	refText := ref.Format()
	if ref.Calib == nil || ref.Calib.FullHosts == 0 {
		t.Fatalf("sampled run selected no full-fidelity hosts (frac=%v, hosts=%d)",
			cfg.Fidelity.SampleFrac, cfg.Hosts)
	}
	var refOM bytes.Buffer
	if err := ref.WriteOpenMetrics(&refOM); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{4, 16} {
		cfg.Workers = workers
		got := mustRun(t, cfg)
		if gotText := got.Format(); gotText != refText {
			t.Errorf("workers=%d: sampled summary text differs from serial run:\n--- serial\n%s--- workers=%d\n%s",
				workers, refText, workers, gotText)
		}
		var om bytes.Buffer
		if err := got.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(om.Bytes(), refOM.Bytes()) {
			t.Errorf("workers=%d: sampled OpenMetrics differ from serial run", workers)
		}
	}
}

// TestSampledRepeatedRunIdentity: re-running the identical sampled config
// reproduces the bytes — full machines introduce no run-to-run state.
func TestSampledRepeatedRunIdentity(t *testing.T) {
	cfg := sampledConfig()
	cfg.Workers = 4
	a := mustRun(t, cfg).Format()
	b := mustRun(t, cfg).Format()
	if a != b {
		t.Errorf("repeated sampled runs differ:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestOutcomeModeBytesUnchanged: explicitly asking for the outcome model is
// the zero value — same bytes as a config that never mentions fidelity, so
// every pre-fidelity golden stays valid.
func TestOutcomeModeBytesUnchanged(t *testing.T) {
	ref := mustRun(t, goldenConfig()).Format()
	cfg := goldenConfig()
	cfg.Fidelity = fleet.Fidelity{Mode: fleet.FidelityOutcome}
	if got := mustRun(t, cfg).Format(); got != ref {
		t.Errorf("explicit outcome fidelity changed output:\n--- implicit\n%s--- explicit\n%s", ref, got)
	}
	if s := mustRun(t, cfg); s.Calib != nil {
		t.Error("outcome mode allocated calibration state")
	}
}

// TestFullFidelityCalibrationOrdering runs a small all-machine fleet with no
// injected faults and checks the property the controllers exist to enforce:
// the protected workload's read p99 stays below the best-effort bulk
// workload's. Also sanity-checks the calibration plumbing end to end.
func TestFullFidelityCalibrationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine fleet in -short mode")
	}
	cfg := fleet.ClusterConfig{
		Hosts:          12,
		RackSize:       4,
		ShardRacks:     1,
		Ticks:          3,
		TickDur:        sim.Second,
		OpsPerHostTick: 6,
		Seed:           0xf1de1,
		Kind:           fleet.PackageFetch,
		Workers:        4,
		Fidelity: fleet.Fidelity{
			Mode:    fleet.FidelityFull,
			Machine: exp.NewFleetHost,
		},
	}
	s := mustRun(t, cfg)
	c := s.Calib
	if c == nil {
		t.Fatal("full mode produced no calibration state")
	}
	if c.FullHosts != cfg.Hosts {
		t.Fatalf("FullHosts = %d, want %d", c.FullHosts, cfg.Hosts)
	}
	for tick, ct := range c.PerTick {
		if ct.Full.Count() == 0 {
			t.Errorf("tick %d: no full-machine observations", tick)
		}
		if ct.Outcome.Count() != 0 {
			t.Errorf("tick %d: outcome observations in an all-machine fleet", tick)
		}
	}
	prot, bulk := c.Protected.Quantile(0.99), c.BestEffort.Quantile(0.99)
	if c.Protected.Count() == 0 || c.BestEffort.Count() == 0 {
		t.Fatalf("empty workload sketches: protected n=%d best-effort n=%d",
			c.Protected.Count(), c.BestEffort.Count())
	}
	if prot >= bulk {
		t.Errorf("protected read p99 (%d ns) not below best-effort read p99 (%d ns)", prot, bulk)
	}
	if !strings.Contains(s.Format(), "fidelity: full-machine hosts=12") {
		t.Errorf("Format missing fidelity section:\n%s", s.Format())
	}
}

// TestFidelityValidation: malformed fidelity blocks surface as typed
// *fleet.FidelityError values from Validate, naming the offending field.
func TestFidelityValidation(t *testing.T) {
	base := func() fleet.ClusterConfig {
		cfg := goldenConfig()
		cfg.Workers = 1
		return cfg
	}
	cases := []struct {
		name  string
		fid   fleet.Fidelity
		field string
	}{
		{"unknown mode", fleet.Fidelity{Mode: "hologram"}, "Mode"},
		{"frac above one", fleet.Fidelity{Mode: fleet.FidelitySampled, SampleFrac: 1.5, Machine: exp.NewFleetHost}, "SampleFrac"},
		{"negative frac", fleet.Fidelity{Mode: fleet.FidelitySampled, SampleFrac: -0.1, Machine: exp.NewFleetHost}, "SampleFrac"},
		{"frac in outcome mode", fleet.Fidelity{Mode: fleet.FidelityOutcome, SampleFrac: 0.5}, "SampleFrac"},
		{"frac in full mode", fleet.Fidelity{Mode: fleet.FidelityFull, SampleFrac: 0.5, Machine: exp.NewFleetHost}, "SampleFrac"},
		{"window in outcome mode", fleet.Fidelity{Mode: fleet.FidelityOutcome, Window: sim.Second}, "Window"},
		{"negative window", fleet.Fidelity{Mode: fleet.FidelityFull, Window: -1, Machine: exp.NewFleetHost}, "Window"},
		{"machine missing", fleet.Fidelity{Mode: fleet.FidelitySampled, SampleFrac: 0.1}, "Machine"},
	}
	for _, tc := range cases {
		cfg := base()
		cfg.Fidelity = tc.fid
		_, err := fleet.RunCluster(cfg)
		var fe *fleet.FidelityError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error = %v, want *fleet.FidelityError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: error field = %q, want %q (%v)", tc.name, fe.Field, tc.field, fe)
		}
	}

	if _, err := fleet.ParseFidelityMode("nosuch"); err == nil {
		t.Error("ParseFidelityMode accepted an unknown mode")
	}
	for _, m := range []string{"outcome", "sampled", "full"} {
		if _, err := fleet.ParseFidelityMode(m); err != nil {
			t.Errorf("ParseFidelityMode(%q): %v", m, err)
		}
	}
}
