package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/tune"
)

// tinyWorkloads are the benchmark's workloads at sizes a test can afford.
func tinyWorkloads() []workload {
	return []workload{
		stackIOCost(200 * sim.Millisecond),
		stackNull(100 * sim.Millisecond),
		fleetOutcome(2000, 2),
		tuneFleetA(tune.Options{
			Candidates: 4, Window: 20 * sim.Millisecond, Warmup: 10 * sim.Millisecond, HillRounds: 1, HillNeighbors: 2,
		}, 2),
	}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runCLI runs the command line in-process and returns its standard output
// and parsed last line.
func runCLI(t *testing.T, ws []workload, args ...string) (string, resultLine) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append(args, "--out", t.TempDir()), &out, &errb, ws); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return out.String(), res
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	ws := workloads()
	if len(bf.Workload) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workload), len(ws))
	}
	for i, w := range bf.Workload {
		if w.Name != ws[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, ws[i].name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(file), len(defs))
		}
		for i, m := range file {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestEveryMetricPrints runs each workload untraced and traced and checks
// that every metric prints by name with its unit, in the human lines and
// in the JSON result line.
func TestEveryMetricPrints(t *testing.T) {
	bf := readBenchmarkFile(t)
	ws := tinyWorkloads()
	for _, w := range ws {
		t.Run(w.name, func(t *testing.T) {
			out, res := runCLI(t, ws, "--workload", w.name, "--seed", "3", "--seconds", "0.05", "--trace", "0")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run not correct: %+v\n%s", res, out)
			}
			for _, m := range bf.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("result line: metric %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
				if got.Value <= 0 {
					t.Errorf("result line: metric %s = %v, want > 0", m.Name, got.Value)
				}
				if !strings.Contains(out, fmt.Sprintf("metric %s %s ", w.name, m.Name)) ||
					!hasLineSuffix(out, fmt.Sprintf("metric %s %s ", w.name, m.Name), " "+m.Unit) {
					t.Errorf("no human line for %s with unit %s", m.Name, m.Unit)
				}
			}
			for _, name := range []string{w.headline, "failed_frac"} {
				if !strings.Contains(out, fmt.Sprintf("metric %s %s ", w.name, name)) {
					t.Errorf("no human line for %s", name)
				}
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(bf.EndToEnd))
			}

			out, res = runCLI(t, ws, "--workload", w.name, "--seed", "3", "--seconds", "0.1", "--trace", "1")
			if !res.Correct {
				t.Fatalf("traced run not correct: %+v\n%s", res, out)
			}
			if len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced result line has %d metrics, want %d", len(res.Metrics), len(bf.PerLayer))
			}
			for _, m := range bf.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("traced result line: metric %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if !strings.Contains(out, "-- tracing overhead") {
				t.Error("traced run printed no tracing overhead")
			}
		})
	}
}

func hasLineSuffix(out, prefix, suffix string) bool {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) && strings.HasSuffix(l, suffix) {
			return true
		}
	}
	return false
}

// TestDigestRepeats checks that two runs of one seed give the same digest,
// and that the seed reaches the simulation wherever it can change an
// output: on the noiseless null device, offsets never change timing.
func TestDigestRepeats(t *testing.T) {
	o := options{seed: 5, budget: time.Millisecond}
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			a, err := bench(w, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := bench(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if a.plain.digest == "" || a.plain.digest != b.plain.digest {
				t.Fatalf("digests differ across runs of seed %d:\n%s\n---\n%s", o.seed, a.plain.digest, b.plain.digest)
			}
			if a.plain.failed != 0 || b.plain.failed != 0 {
				t.Fatalf("checks failed: %v %v", a.plain.problems, b.plain.problems)
			}
			if w.name == "stack-null" {
				return
			}
			other := o
			other.seed++
			c, err := bench(w, other)
			if err != nil {
				t.Fatal(err)
			}
			if c.plain.digest == a.plain.digest {
				t.Errorf("seeds %d and %d give the same digest", o.seed, other.seed)
			}
		})
	}
}

// TestFailingCheckCounted wraps a workload so its output check fails, or
// its operation errors, and checks both count in failed_frac.
func TestFailingCheckCounted(t *testing.T) {
	base := stackNull(50 * sim.Millisecond)
	wrap := func(name string, spoil func(repResult) (repResult, error)) workload {
		w := base
		w.name = name
		w.setup = func(seed uint64, tr *tracer) (func() (repResult, error), error) {
			run, err := base.setup(seed, tr)
			if err != nil {
				return nil, err
			}
			return func() (repResult, error) {
				res, err := run()
				if err != nil {
					return res, err
				}
				return spoil(res)
			}, nil
		}
		return w
	}
	failing := wrap("failing-check", func(r repResult) (repResult, error) {
		r.problem("deliberately failing check")
		return r, nil
	})
	erroring := wrap("erroring", func(r repResult) (repResult, error) {
		return repResult{ops: 1, opFails: 1}, errors.New("deliberate error")
	})
	ws := []workload{failing, erroring}
	for _, w := range ws {
		t.Run(w.name, func(t *testing.T) {
			out, res := runCLI(t, ws, "--workload", w.name, "--seconds", "0.01")
			if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
				t.Fatalf("result %+v, want every attempted op failed", res)
			}
			if !strings.Contains(out, "check FAILED") || !strings.Contains(out, fmt.Sprintf("metric %s failed_frac 1 frac", w.name)) {
				t.Errorf("failure not reported:\n%s", out)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/iocost-sim/iocost/internal/sim.(*Engine).RunUntil":      "sim",
		"github.com/iocost-sim/iocost/internal/workload.NewSaturator.func1": "workload",
		"github.com/iocost-sim/iocost/internal/fanout.ForEachN[...].func1":  "fanout",
		"github.com/iocost-sim/iocost.RunFleet":                             "iocost",
		"main.measure":                                                      "perfbench",
		"math.Exp":                                                          "",
		"runtime.mallocgc":                                                  "",
		"github.com/iocost-sim/iocost/internal/device.(*SSD).serviceTime":   "device",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
