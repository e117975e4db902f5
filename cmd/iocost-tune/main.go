// Command iocost-tune runs the closed-loop QoS auto-tuner (internal/tune):
// it races candidate io.cost.qos configurations as forked deterministic
// simulation branches against a pluggable objective and emits the
// recommended configuration as versioned JSON or a human table.
//
// Usage:
//
//	iocost-tune [-scenario name | -device name] [-seed N] [-objective name]
//	            [-target ms] [-candidates N] [-rounds N] [-window ms]
//	            [-warmup ms] [-hill N] [-workers N] [-json] [-o file] [-q]
//	iocost-tune -check report.json
//
// The output is a pure function of (seed, scenario, objective): the same
// invocation produces byte-identical output at any -workers width. Progress
// goes to stderr (rate-limited; silence it with -q), results to stdout or -o.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/iocost-sim/iocost/internal/cli"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/tune"
)

const tool = "iocost-tune"

func main() {
	cli.Setup(tool, "[-scenario name] [-seed N] [-objective name] [-json] [-o file] | -check file")
	scenario := flag.String("scenario", "fleet-a",
		"built-in scenario: "+strings.Join(tune.ScenarioNames(), ", "))
	deviceName := flag.String("device", "",
		"tune an ad-hoc scenario for this device model instead of -scenario (see exp.DeviceNames)")
	seed := flag.Uint64("seed", 1, "search seed (the whole run derives from it)")
	objective := flag.String("objective", "",
		"objective: "+strings.Join(tune.ObjectiveNames(), ", ")+" (default bulk-slo)")
	target := flag.Float64("target", 0, "protected p99 target in ms (0 keeps the scenario's)")
	candidates := flag.Int("candidates", 0, "initial population size (0 selects 12)")
	rounds := flag.Int("rounds", 0, "cap on halving rounds (0 races until two remain)")
	window := flag.Float64("window", 0, "first measurement window in ms (0 selects 400)")
	warmup := flag.Float64("warmup", 0, "warmup before each window in ms (0 selects 200)")
	hill := flag.Int("hill", 0, "hill-climbing rounds after halving (0 selects 2, negative disables)")
	workers := flag.Int("workers", 0, "candidate fan-out width (0 serial; output identical at any width)")
	jsonOut := flag.Bool("json", false, "emit the versioned JSON report instead of the table")
	outFile := flag.String("o", "", "write output to file instead of stdout")
	check := flag.String("check", "", "validate a previously emitted JSON report and exit")
	quiet := flag.Bool("q", false, "suppress progress output on stderr")
	cli.Parse(tool)

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		rep, err := tune.ParseReport(data)
		if err != nil {
			cli.Fatalf(tool, "%s: %v", *check, err)
		}
		fmt.Printf("%s: valid report (scenario %s, seed %d, %d evals)\n",
			*check, rep.Scenario, rep.Seed, rep.Evals)
		return
	}

	var sc tune.Scenario
	var err error
	if *deviceName != "" {
		scenarioSet := false
		flag.Visit(func(f *flag.Flag) { scenarioSet = scenarioSet || f.Name == "scenario" })
		if scenarioSet {
			cli.Fatalf(tool, "-device and -scenario are mutually exclusive")
		}
		sc, err = deviceScenario(*deviceName)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
	} else if sc, err = tune.ScenarioByName(*scenario); err != nil {
		cli.Fatalf(tool, "%v (known: %s)", err, strings.Join(tune.ScenarioNames(), ", "))
	}

	opts := tune.Options{
		Seed:       *seed,
		Objective:  *objective,
		Target:     sim.Time(*target * float64(sim.Millisecond)),
		Candidates: *candidates,
		Rounds:     *rounds,
		Window:     sim.Time(*window * float64(sim.Millisecond)),
		Warmup:     sim.Time(*warmup * float64(sim.Millisecond)),
		HillRounds: *hill,
		Workers:    *workers,
	}
	var progress *cli.RateLimitedLogger
	if !*quiet {
		// Progress is wall-clock rate-limited; it never touches the
		// deterministic result stream on stdout.
		progress = cli.NewRateLimitedLogger(os.Stderr, tool+": ",
			int64(200*time.Millisecond), 5, func() int64 { return time.Now().UnixNano() })
		opts.Progress = func(key, format string, args ...any) {
			progress.Logf(key, format, args...)
		}
	}

	res, err := tune.Search(sc, opts)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	if progress != nil {
		progress.Flush()
	}

	rep := res.Report()
	var out []byte
	if *jsonOut {
		out, err = rep.JSON()
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
	} else {
		out = []byte(rep.Table())
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, out, 0o644); err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		return
	}
	os.Stdout.Write(out)
}

// deviceScenario builds an ad-hoc tuning scenario around one named device
// model from the shared exp catalog, with per-family latency targets
// matching the built-in scenarios of the same device class.
func deviceScenario(name string) (tune.Scenario, error) {
	choice, err := exp.ParseDevice(name)
	if err != nil {
		return tune.Scenario{}, err
	}
	sc := tune.Scenario{Name: "device-" + name, Device: choice}
	switch choice.Kind() {
	case exp.DeviceSSD:
		sc.Target, sc.ShedTarget = 2*sim.Millisecond, 500*sim.Microsecond
	case exp.DeviceHDD:
		sc.Target, sc.ShedTarget = 250*sim.Millisecond, 40*sim.Millisecond
	case exp.DeviceRemote:
		sc.Target, sc.ShedTarget = 10*sim.Millisecond, 3*sim.Millisecond
	}
	return sc, nil
}
