// Command iocost-bench regenerates the paper's evaluation: every table and
// figure of §4 plus the design-choice ablations, printed as the rows/series
// the paper plots.
//
// Usage:
//
//	iocost-bench [-run table1,fig3,...|all] [-short] [-parallel] [-json]
//
// Experiment ids: table1, fig3, fig4, fig6, fig8, fig9, fig10, fig11,
// fig12, fig13, fig14, fig15, fig16, fig17, fig18, fig19, fleet,
// ext-degradation, ext-faults, tune, ablations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/iocost-sim/iocost/internal/cli"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
)

type experiment struct {
	id    string
	title string
	run   func(short bool) string
	// data returns the structured result for -json output.
	data func(short bool) any
}

var experiments = []experiment{
	{"table1", "Table 1: Linux IO control mechanisms and features",
		func(bool) string { return exp.FormatTable1(exp.Table1()) },
		func(bool) any { return exp.Table1() }},
	{"fig3", "Figure 3: device heterogeneity across the fleet",
		func(short bool) string { return exp.FormatFig3(exp.Fig3(exp.Fig3Options{Short: short})) },
		func(short bool) any { return exp.Fig3(exp.Fig3Options{Short: short}) }},
	{"fig4", "Figure 4: IO workload heterogeneity",
		func(short bool) string { return exp.FormatFig4(exp.Fig4(fig4Opts(short))) },
		func(short bool) any { return exp.Fig4(fig4Opts(short)) }},
	{"fig6", "Figure 6: cost-model configuration example",
		func(bool) string { return exp.Fig6().String() + "\n" },
		func(bool) any { return exp.Fig6() }},
	{"fig8", "Figure 8: budget donation (live scenario)",
		func(bool) string { return exp.Fig8().String() },
		func(bool) any { return exp.Fig8() }},
	{"fig9", "Figure 9: IO control overhead",
		func(short bool) string { return exp.FormatFig9(exp.Fig9(fig9Opts(short))) },
		func(short bool) any { return exp.Fig9(fig9Opts(short)) }},
	{"fig10", "Figure 10: proportional control (target 2:1)",
		func(short bool) string { return exp.FormatFig10(exp.Fig10(fig10Opts(short))) },
		func(short bool) any { return exp.Fig10(fig10Opts(short)) }},
	{"fig11", "Figure 11: work conservation",
		func(short bool) string { return exp.FormatFig11(exp.Fig11(fig10Opts(short))) },
		func(short bool) any { return exp.Fig11(fig10Opts(short)) }},
	{"fig12", "Figure 12: spinning-disk fairness",
		func(short bool) string { return exp.FormatFig12(exp.Fig12(fig12Opts(short))) },
		func(short bool) any { return exp.Fig12(fig12Opts(short)) }},
	{"fig13", "Figure 13: vrate adjustment under model error",
		func(short bool) string { return exp.Fig13(fig13Opts(short)).String() },
		func(short bool) any { return exp.Fig13(fig13Opts(short)) }},
	{"fig14", "Figure 14: memory-management awareness",
		func(short bool) string { return exp.FormatFig14(exp.Fig14(fig14Opts(short))) },
		func(short bool) any { return exp.Fig14(fig14Opts(short)) }},
	{"fig15", "Figure 15: ramp-up in an overcommitted environment",
		func(short bool) string { return exp.FormatFig15(exp.Fig15(fig15Opts(short))) },
		func(short bool) any { return exp.Fig15(fig15Opts(short)) }},
	{"fig16", "Figure 16: stacked ZooKeeper SLO violations",
		func(short bool) string { return exp.FormatFig16(exp.Fig16(fig16Opts(short))) },
		func(short bool) any { return exp.Fig16(fig16Opts(short)) }},
	{"fig17", "Figure 17: remote storage protection",
		func(short bool) string { return exp.FormatFig17(exp.Fig17(fig14Opts(short))) },
		func(short bool) any { return exp.Fig17(fig14Opts(short)) }},
	{"fig18", "Figure 18: package-fetch failures across migration",
		func(short bool) string { return exp.FormatFleet(exp.Fig18(fleetOpts(short))) },
		func(short bool) any { return exp.Fig18(fleetOpts(short)) }},
	{"fig19", "Figure 19: container-cleanup failures across migration",
		func(short bool) string { return exp.FormatFleet(exp.Fig19(fleetOpts(short))) },
		func(short bool) any { return exp.Fig19(fleetOpts(short)) }},
	{"fleet", "Fleet: cluster-scale sharded migration with canary push and rack fault storm",
		func(short bool) string { return exp.FormatFleetScale(fleetScale(short)) },
		func(short bool) any { return fleetScale(short).Export() }},
	{"ext-degradation", "Extension: QoS under a mid-run device degradation episode (§5)",
		func(short bool) string { return exp.FormatExtDegradation(exp.ExtDegradation(extDegOpts(short))) },
		func(short bool) any { return exp.ExtDegradation(extDegOpts(short)) }},
	{"ext-faults", "Extension: failure semantics under a 10x latency + 1% error storm",
		func(short bool) string { return exp.FormatExtFaults(exp.ExtFaults(extFaultsOpts(short))) },
		func(short bool) any { return exp.ExtFaults(extFaultsOpts(short)) }},
	{"tune", "Extension: closed-loop QoS auto-tuning vs hand-tuned (internal/tune)",
		func(short bool) string { return formatAutoTune(autoTune(short)) },
		func(short bool) any { return autoTune(short) }},
	{"ablations", "Ablations: donation, merging, planning period, cost model",
		func(short bool) string {
			d := ablationDur(short)
			return exp.FormatAblations(exp.AblationDonation(d), exp.AblationPeriod(d), exp.AblationCostModel(d))
		},
		func(short bool) any {
			d := ablationDur(short)
			return map[string]any{
				"donation":  exp.AblationDonation(d),
				"merging":   exp.AblationMerging(0),
				"period":    exp.AblationPeriod(d),
				"costmodel": exp.AblationCostModel(d),
			}
		}},
}

// Shared option builders so the text and JSON paths run identical configs.
func fig4Opts(short bool) exp.Fig4Options {
	if short {
		return exp.Fig4Options{Duration: 2 * sim.Second}
	}
	return exp.Fig4Options{}
}

func fig9Opts(short bool) exp.Fig9Options {
	if short {
		return exp.Fig9Options{IOs: 60000}
	}
	return exp.Fig9Options{}
}

func fig10Opts(short bool) exp.Fig10Options {
	if short {
		return exp.Fig10Options{Warmup: sim.Second, Measure: 3 * sim.Second}
	}
	return exp.Fig10Options{}
}

func fig12Opts(short bool) exp.Fig12Options {
	if short {
		return exp.Fig12Options{Measure: 15 * sim.Second}
	}
	return exp.Fig12Options{}
}

func fig13Opts(short bool) exp.Fig13Options {
	if short {
		return exp.Fig13Options{Phase: 4 * sim.Second}
	}
	return exp.Fig13Options{}
}

func fig14Opts(short bool) exp.Fig14Options {
	if short {
		return exp.Fig14Options{Baseline: 3 * sim.Second, Leak: 12 * sim.Second}
	}
	return exp.Fig14Options{}
}

func fig15Opts(short bool) exp.Fig15Options {
	if short {
		return exp.Fig15Options{Limit: 80 * sim.Second}
	}
	return exp.Fig15Options{}
}

func fig16Opts(short bool) exp.Fig16Options {
	if short {
		return exp.Fig16Options{Duration: 120 * sim.Second}
	}
	return exp.Fig16Options{}
}

func fleetOpts(short bool) exp.FigFleetOptions {
	if short {
		return exp.FigFleetOptions{Trials: 3, Hosts: 500}
	}
	return exp.FigFleetOptions{}
}

// fleetScale runs the cluster-scale experiment; the config is valid by
// construction, so an error here is a programming bug.
func fleetScale(short bool) *fleet.Summary {
	s, err := exp.FleetScale(fleet.PackageFetch, exp.FleetScaleOptions{
		Push: true, Storm: true, Short: short,
	})
	if err != nil {
		panic(err)
	}
	return s
}

func extFaultsOpts(short bool) exp.ExtFaultsOptions {
	if short {
		return exp.ExtFaultsOptions{Phase: 4 * sim.Second}
	}
	return exp.ExtFaultsOptions{}
}

func extDegOpts(short bool) exp.ExtDegradationOptions {
	if short {
		return exp.ExtDegradationOptions{Phase: 4 * sim.Second}
	}
	return exp.ExtDegradationOptions{}
}

func ablationDur(short bool) sim.Time {
	if short {
		return 2 * sim.Second
	}
	return 4 * sim.Second
}

func main() {
	cli.Setup("iocost-bench", "[-run ids] [-short] [-json] [-parallel]")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	short := flag.Bool("short", false, "shorter runs (quick smoke pass)")
	jsonOut := flag.Bool("json", false, "emit structured JSON instead of text")
	parallel := flag.Bool("parallel", false,
		"fan independent experiment cells across GOMAXPROCS goroutines (identical output, less wall clock)")
	cli.Parse("iocost-bench")
	fanout.SetParallel(*parallel)

	want := map[string]bool{}
	if *run != "all" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !known(id) {
				fmt.Fprintf(os.Stderr, "iocost-bench: unknown experiment %q\n", id)
				os.Exit(1)
			}
		}
	}

	if *jsonOut {
		out := map[string]any{}
		for _, e := range experiments {
			if *run != "all" && !want[e.id] {
				continue
			}
			out[e.id] = e.data(*short)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "iocost-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	for _, e := range experiments {
		if *run != "all" && !want[e.id] {
			continue
		}
		fmt.Printf("=== %s [%s]\n", e.title, e.id)
		start := time.Now()
		fmt.Print(e.run(*short))
		fmt.Printf("--- (%.1fs wall)\n\n", time.Since(start).Seconds())
	}
}

func known(id string) bool {
	for _, e := range experiments {
		if e.id == id {
			return true
		}
	}
	return false
}
