// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§4) plus the design-choice ablations. Each
// benchmark runs the corresponding experiment end-to-end on the simulator
// and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. The iocost-bench command prints the
// full rows/series; EXPERIMENTS.md records paper-vs-measured for each.
package iocost_test

import (
	"flag"
	"os"
	"testing"

	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/sim"
)

// -exp.parallel fans independent experiment cells across GOMAXPROCS
// goroutines (the name avoids go test's reserved -parallel flag). Results
// are identical to serial runs; only wall clock changes.
var expParallel = flag.Bool("exp.parallel", false,
	"run experiment cells in parallel (identical results, less wall clock)")

func TestMain(m *testing.M) {
	flag.Parse()
	fanout.SetParallel(*expParallel)
	os.Exit(m.Run())
}

func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table1()
		if len(rows) != 5 {
			b.Fatalf("expected 5 rows, got %d", len(rows))
		}
	}
}

func BenchmarkFig3DeviceHeterogeneity(b *testing.B) {
	var rows []exp.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig3(exp.Fig3Options{Short: true})
	}
	for _, r := range rows {
		if r.Device == "H" {
			b.ReportMetric(r.RandReadIOPS, "H-randread-IOPS")
		}
		if r.Device == "G" {
			b.ReportMetric(r.RandReadIOPS, "G-randread-IOPS")
		}
	}
}

func BenchmarkFig4WorkloadHeterogeneity(b *testing.B) {
	var rows []exp.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig4(exp.Fig4Options{Duration: 2 * sim.Second})
	}
	for _, r := range rows {
		if r.Workload == "cache-a" {
			b.ReportMetric(r.SeqBps/1e6, "cacheA-seq-MBps")
		}
	}
}

func BenchmarkFig6CostModelExample(b *testing.B) {
	var r exp.Fig6Result
	for i := 0; i < b.N; i++ {
		r = exp.Fig6()
	}
	b.ReportMetric(r.ExamplePerSec, "128KiB-randreads-per-sec")
}

func BenchmarkFig8DonationExample(b *testing.B) {
	var r exp.Fig8Result
	for i := 0; i < b.N; i++ {
		r = exp.Fig8()
	}
	b.ReportMetric(r.Received["G"], "G-received-hweight")
	b.ReportMetric(r.Received["E"], "E-received-hweight")
}

func BenchmarkFig9Overhead(b *testing.B) {
	var rows []exp.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig9(exp.Fig9Options{IOs: 100000})
	}
	for _, r := range rows {
		switch r.Mechanism {
		case "bfq":
			b.ReportMetric(r.PerIONS, "bfq-ns/IO")
		case "iocost":
			b.ReportMetric(r.PerIONS, "iocost-ns/IO")
		}
	}
}

func BenchmarkFig10Proportional(b *testing.B) {
	var rows []exp.Fig10Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig10(exp.Fig10Options{Warmup: sim.Second, Measure: 3 * sim.Second})
	}
	for _, r := range rows {
		if r.Mechanism == "iocost" {
			b.ReportMetric(r.Ratio, "iocost-ratio")
		}
		if r.Mechanism == "bfq" {
			b.ReportMetric(r.Ratio, "bfq-ratio")
		}
	}
}

func BenchmarkFig11WorkConserving(b *testing.B) {
	var rows []exp.Fig11Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig11(exp.Fig10Options{Warmup: sim.Second, Measure: 3 * sim.Second})
	}
	for _, r := range rows {
		switch r.Mechanism {
		case "iocost":
			b.ReportMetric(r.LoIOPS, "iocost-lo-IOPS")
		case "blk-throttle":
			b.ReportMetric(r.LoIOPS, "throttle-lo-IOPS")
		}
	}
}

func BenchmarkFig12SpinningDisk(b *testing.B) {
	var rows []exp.Fig12Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig12(exp.Fig12Options{Measure: 15 * sim.Second})
	}
	for _, r := range rows {
		if r.Mechanism == "iocost" && r.Scenario == "rand/rand" {
			b.ReportMetric(r.Ratio, "iocost-randrand-ratio")
		}
	}
}

func BenchmarkFig13VrateAdjust(b *testing.B) {
	var r exp.Fig13Result
	for i := 0; i < b.N; i++ {
		r = exp.Fig13(exp.Fig13Options{Phase: 4 * sim.Second})
	}
	b.ReportMetric(r.VratePhase[0], "vrate-accurate-pct")
	b.ReportMetric(r.VratePhase[1], "vrate-halfmodel-pct")
	b.ReportMetric(r.VratePhase[2], "vrate-doublemodel-pct")
}

func BenchmarkFig14MemLeak(b *testing.B) {
	var rows []exp.Fig14Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig14(exp.Fig14Options{Baseline: 3 * sim.Second, Leak: 12 * sim.Second})
	}
	for _, r := range rows {
		if r.Device == "older-gen" {
			switch r.Mechanism {
			case "iocost":
				b.ReportMetric(r.Retention*100, "iocost-retention-pct")
			case "bfq":
				b.ReportMetric(r.Retention*100, "bfq-retention-pct")
			}
		}
	}
}

func BenchmarkFig15RampUp(b *testing.B) {
	var rows []exp.Fig15Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig15(exp.Fig15Options{Limit: 80 * sim.Second})
	}
	for _, r := range rows {
		if r.Stress {
			switch r.Config {
			case "iocost":
				b.ReportMetric(r.RampTime.Seconds(), "iocost-stress-ramp-s")
			case "iocost-no-debt":
				b.ReportMetric(r.RampTime.Seconds(), "nodebt-stress-ramp-s")
			}
		}
	}
}

func BenchmarkFig16ZooKeeper(b *testing.B) {
	var rows []exp.Fig16Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig16(exp.Fig16Options{Duration: 120 * sim.Second})
	}
	for _, r := range rows {
		switch r.Mechanism {
		case "iocost":
			b.ReportMetric(float64(r.Violations), "iocost-violations")
		case "blk-throttle":
			b.ReportMetric(float64(r.Violations), "throttle-violations")
		}
	}
}

func BenchmarkFig17RemoteStorage(b *testing.B) {
	var rows []exp.Fig17Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig17(exp.Fig14Options{Baseline: 3 * sim.Second, Leak: 12 * sim.Second})
	}
	var worst float64 = 1
	for _, r := range rows {
		if r.Retention < worst {
			worst = r.Retention
		}
	}
	b.ReportMetric(worst*100, "worst-retention-pct")
}

func BenchmarkFig18PackageFetch(b *testing.B) {
	var r exp.FleetResult
	for i := 0; i < b.N; i++ {
		r = exp.Fig18(exp.FigFleetOptions{Trials: 3, Hosts: 500})
	}
	b.ReportMetric(r.Reduction, "failure-reduction-x")
}

func BenchmarkFig19ContainerCleanup(b *testing.B) {
	var r exp.FleetResult
	for i := 0; i < b.N; i++ {
		r = exp.Fig19(exp.FigFleetOptions{Trials: 3, Hosts: 500})
	}
	b.ReportMetric(r.Reduction, "failure-reduction-x")
}

func BenchmarkAblationDonation(b *testing.B) {
	var r exp.AblationDonationResult
	for i := 0; i < b.N; i++ {
		r = exp.AblationDonation(2 * sim.Second)
	}
	b.ReportMetric(r.Gain, "donation-gain-x")
}

func BenchmarkAblationPeriod(b *testing.B) {
	var rows []exp.AblationPeriodRow
	for i := 0; i < b.N; i++ {
		rows = exp.AblationPeriod(2 * sim.Second)
	}
	for _, r := range rows {
		if r.Period == 5*sim.Millisecond {
			b.ReportMetric(r.Ratio, "ratio-at-5ms-period")
		}
	}
}

func BenchmarkAblationCostModel(b *testing.B) {
	var rows []exp.AblationCostModelRow
	for i := 0; i < b.N; i++ {
		rows = exp.AblationCostModel(2 * sim.Second)
	}
	for _, r := range rows {
		switch r.Model {
		case "full-linear":
			b.ReportMetric(r.OccRatio, "full-model-occratio")
		case "iops-only":
			b.ReportMetric(r.OccRatio, "iops-only-occratio")
		}
	}
}
