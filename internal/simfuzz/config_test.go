package simfuzz

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"github.com/iocost-sim/iocost/internal/core"
)

// TestIOCostCoreConfigGolden pins the iocost cost model and QoS targets the
// fuzzer derives for one scenario per device kind, at full precision.
// Regenerate after an intentional change with:
//
//	UPDATE_CONFIG_GOLDEN=1 go test ./internal/simfuzz -run TestIOCostCoreConfigGolden
func TestIOCostCoreConfigGolden(t *testing.T) {
	var b bytes.Buffer
	for _, dev := range []DeviceSpec{
		{Kind: "ssd", Profile: "OlderGenSSD"},
		{Kind: "ssd", Profile: "NewerGenSSD"},
		{Kind: "ssd", Profile: "EnterpriseSSD"},
		{Kind: "hdd", Profile: "EvalHDD"},
		{Kind: "remote", Profile: "EBSgp3"},
	} {
		cfg := iocostCoreConfig(Scenario{Dev: dev})
		p := cfg.Model.(*core.LinearModel).Params()
		fmt.Fprintf(&b, "%s/%s\n  model %s\n  model %#v\n  qos   %s\n  qos   %#v\n",
			dev.Kind, dev.Profile, p, p, cfg.QoS, cfg.QoS)
	}
	const file = "testdata/iocost_core_config.txt"
	if os.Getenv("UPDATE_CONFIG_GOLDEN") != "" {
		if err := os.WriteFile(file, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("iocost configs differ from %s:\n%s", file, b.Bytes())
	}
}
