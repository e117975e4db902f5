// Command perfbench is the repository's same-host benchmark: it measures
// what the simulator itself costs on the host it runs on. Each workload is
// a closed loop over one fixed-size operation — a single-machine stack run,
// a cluster-scale fleet run, or an auto-tuner recommendation — driven
// through the public functions of internal/exp, internal/workload,
// internal/fleet and internal/tune. Every repetition's simulated outputs
// are digested and checked.
//
// Usage:
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object
// carrying every end-to-end metric; with --trace 1 untraced and traced
// repetitions alternate and the JSON carries the per-layer metrics.
// See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics, as BENCHMARK.json does. Every
// workload reports each of them; throughput counts the workload's own work
// unit (bios, hosts or recommendations).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"sim_speedup", "s/s"},
	{"peak_heap_mib", "MiB"},
}

// selfLayers are the repository packages whose profiled CPU time is
// reported as <layer>.self_s.
var selfLayers = []string{
	"sim", "device", "rng", "core", "ctl", "cgroup", "blk", "bio",
	"workload", "stats", "metrics", "registry", "fleet", "runtime",
}

// perLayer lists the traced run's metrics, as BENCHMARK.json does. Values
// are per repetition unless the name says otherwise.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_s", "cpu_s"})
	}
	return append(defs,
		metricDef{"sim.events", "count"},
		metricDef{"sim.events_per_bio", "count"},
		metricDef{"core.vrate", "frac"},
		metricDef{"blk.completions", "count"},
		metricDef{"blk.tag_depletion_s", "sim_s"},
		metricDef{"bio.allocs_per_bio", "count"},
		metricDef{"exp.build_s", "s"},
		metricDef{"fleet.host_ticks", "count"},
		metricDef{"fleet.output_s", "s"},
		metricDef{"fanout.cpu_util", "frac"},
		metricDef{"tune.evals", "count"},
		metricDef{"tune.branch_sim_s", "sim_s"},
		metricDef{"tune.stage_s.round", "s"},
		metricDef{"tune.stage_s.hill", "s"},
		metricDef{"tune.stage_s.final", "s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()

type options struct {
	seed   uint64
	budget time.Duration
	trace  bool
	outDir string
	commit string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, workloads())) }

func run(args []string, stdout, stderr io.Writer, ws []workload) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames(ws)+", or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traceFlag := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: untraced and traced repetitions alternate, per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result stamps and traced-run artefacts")
	commit := fs.String("commit", "", "commit to stamp on results (default: the binary's VCS stamp)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	o := options{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *traceFlag == 1,
		outDir: *outDir,
		commit: *commit,
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	if *name == "all" {
		var ocs []*outcome
		for _, w := range ws {
			oc, err := bench(w, o)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			oc.report(stdout)
			ocs = append(ocs, oc)
		}
		summary(stdout, ocs)
		return 0
	}
	w, ok := findWorkload(ws, *name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have: %s, all)\n", *name, workloadNames(ws))
		return 2
	}
	oc, err := bench(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	oc.report(stdout)
	if err := oc.writeArtefacts(o.outDir, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(oc.resultLine())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// outcome is one workload's benchmark: the untraced phase, and under
// --trace 1 the traced phase with its spans and folded CPU profiles.
type outcome struct {
	w      workload
	stamp  stamp
	plain  *phase
	traced *phase
	tr     *tracer
	cpu    map[string]float64 // CPU seconds per layer over the traced phase
}

func bench(w workload, o options) (*outcome, error) {
	oc := &outcome{w: w, stamp: hostStamp(o.commit, o.seed), plain: newPhase(nil)}
	if !o.trace {
		return oc, measure(w, o.seed, o.budget, oc.plain)
	}
	oc.tr = newTracer()
	oc.traced = newPhase(oc.tr)
	if err := measure(w, o.seed, o.budget, oc.plain, oc.traced); err != nil {
		return nil, err
	}
	cpu, err := oc.tr.layerCPU()
	if err != nil {
		return nil, err
	}
	oc.cpu = cpu
	return oc, nil
}

func (oc *outcome) phases() []*phase {
	if oc.traced == nil {
		return []*phase{oc.plain}
	}
	return []*phase{oc.plain, oc.traced}
}

// counts sums repetitions and operations over the phases.
func (oc *outcome) counts() (reps int, attempted, failed uint64) {
	for _, p := range oc.phases() {
		reps += p.reps
		attempted += p.attempted
		failed += p.failed
	}
	return reps, attempted, failed
}

func endToEndMetrics(p *phase) map[string]float64 {
	return map[string]float64{
		"setup_s":       median(p.setupS),
		"throughput":    p.throughput(),
		"sim_speedup":   p.speedup(),
		"peak_heap_mib": float64(p.peakHeap) / (1 << 20),
	}
}

// headline returns the workload's own named figure and its unit.
func (oc *outcome) headline(p *phase) (float64, string) {
	if strings.HasSuffix(oc.w.headline, "_per_s") {
		return p.throughput(), "1/s"
	}
	return ratio(sum(p.opS), p.work), "s"
}

func (oc *outcome) layerMetrics() map[string]float64 {
	p := oc.traced
	reps := float64(max(p.reps, 1))
	perRep := func(k string) float64 { return p.counts[k] / reps }
	countRatio := func(num, den string) float64 {
		if p.counts[den] == 0 {
			return 0
		}
		return p.counts[num] / p.counts[den]
	}
	spanPerRep := func(name string) float64 {
		d, _ := oc.tr.total(name)
		return d.Seconds() / reps
	}
	m := map[string]float64{}
	for _, l := range selfLayers {
		m[l+".self_s"] = oc.cpu[l] / reps
	}
	build, builds := oc.tr.total("exp.NewMachine")
	m["sim.events"] = perRep("sim.events")
	m["sim.events_per_bio"] = countRatio("sim.events", "blk.completions")
	m["core.vrate"] = perRep("core.vrate")
	m["blk.completions"] = perRep("blk.completions")
	m["blk.tag_depletion_s"] = perRep("blk.tag_depletion_s")
	m["bio.allocs_per_bio"] = countRatio("bio.allocs", "blk.completions")
	m["exp.build_s"] = build.Seconds() / float64(max(builds, 1))
	m["fleet.host_ticks"] = perRep("fleet.host_ticks")
	m["fleet.output_s"] = spanPerRep("fleet.Summary.Format")
	m["fanout.cpu_util"] = p.cpu.Seconds() / (p.wall.Seconds() * float64(oc.w.workers))
	m["tune.evals"] = perRep("tune.evals")
	m["tune.branch_sim_s"] = perRep("tune.branch_sim_s")
	for _, st := range []string{"round", "hill", "final"} {
		m["tune.stage_s."+st] = spanPerRep("tune.stage." + st)
	}
	m["runtime.gc_cycles"] = p.gcCycles / reps
	if p.totalCPU > 0 {
		m["runtime.gc_cpu_frac"] = p.gcCPU / p.totalCPU
	}
	if base := oc.plain.throughput(); base > 0 {
		m["trace.overhead_frac"] = 1 - p.throughput()/base
	}
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine is the machine-read last line: end-to-end metrics from the
// untraced run, or per-layer metrics from the traced one.
func (oc *outcome) resultLine() resultLine {
	_, attempted, failed := oc.counts()
	r := resultLine{
		Correct:   attempted > 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEnd, endToEndMetrics(oc.plain)
	if oc.traced != nil {
		defs, vals = perLayer, oc.layerMetrics()
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return r
}

// digestEcho is how many lines of the digest text a report prints.
const digestEcho = 20

// report prints the human-readable result: host stamp, digest, checks,
// end-to-end metrics and, for a traced run, the tracing overhead and the
// per-layer breakdown.
func (oc *outcome) report(w io.Writer) {
	st := oc.stamp
	fmt.Fprintf(w, "== perfbench %s\n", oc.w.name)
	fmt.Fprintf(w, "host gomaxprocs=%d nproc=%d cpu=%q go=%s %s/%s commit=%s seed=%d\n",
		st.GOMAXPROCS, st.NumCPU, st.CPU, st.GoVersion, st.GOOS, st.GOARCH, st.Commit, st.Seed)
	p := oc.plain
	fmt.Fprintf(w, "digest %s seed=%d sha256=%s\n", oc.w.name, st.Seed, digestHash(p.digest))
	lines := strings.Split(strings.TrimRight(p.digest, "\n"), "\n")
	for i, l := range lines {
		if i == digestEcho {
			fmt.Fprintf(w, "  ... %d more lines\n", len(lines)-i)
			break
		}
		fmt.Fprintf(w, "  %s\n", l)
	}
	for _, ph := range oc.phases() {
		for _, pr := range ph.problems {
			fmt.Fprintf(w, "check FAILED %s\n", pr)
		}
	}
	reps, attempted, failed := oc.counts()
	if failed == 0 && attempted > 0 {
		fmt.Fprintf(w, "check ok: %d ops over %d reps, digest identical on every rep\n", attempted, reps)
	}
	fmt.Fprintf(w, "reps %d, host seconds per rep median=%.4g, set-up samples %d\n",
		p.reps, median(p.opS), len(p.setupS))
	fmt.Fprintf(w, "rep_s")
	for _, d := range p.opS {
		fmt.Fprintf(w, " %.4g", d)
	}
	fmt.Fprintln(w)
	oc.printEndToEnd(w, p)

	if oc.traced == nil {
		return
	}
	fmt.Fprintf(w, "-- tracing overhead (traced vs untraced repetitions, alternating)\n")
	plain, traced := endToEndMetrics(oc.plain), endToEndMetrics(oc.traced)
	fmt.Fprintf(w, "%-16s %14s %14s %14s %8s\n", "metric", "untraced", "traced", "delta", "delta%")
	for _, d := range endToEnd {
		a, b := plain[d.name], traced[d.name]
		pct := 0.0
		if a != 0 {
			pct = 100 * (b - a) / a
		}
		fmt.Fprintf(w, "%-16s %14.6g %14.6g %14.6g %7.2f%%  %s\n", d.name, a, b, b-a, pct, d.unit)
	}
	oc.printLayers(w)
}

// printEndToEnd prints every end-to-end metric, the workload's headline
// figure and failed_frac, one "metric <workload> <name> <value> <unit>"
// line each.
func (oc *outcome) printEndToEnd(w io.Writer, p *phase) {
	vals := endToEndMetrics(p)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "metric %s %s %.6g %s\n", oc.w.name, d.name, vals[d.name], d.unit)
	}
	v, unit := oc.headline(p)
	fmt.Fprintf(w, "metric %s %s %.6g %s\n", oc.w.name, oc.w.headline, v, unit)
	fmt.Fprintf(w, "metric %s failed_frac %.6g frac\n", oc.w.name, p.failedFrac())
}

// printLayers prints the traced repetitions' CPU per layer (every repository
// package the profile saw), its spans, and the per-layer metrics.
func (oc *outcome) printLayers(w io.Writer) {
	p := oc.traced
	reps := float64(max(p.reps, 1))
	var total float64
	layers := make([]string, 0, len(oc.cpu))
	for l, s := range oc.cpu {
		layers = append(layers, l)
		total += s
	}
	sort.Slice(layers, func(i, j int) bool {
		if oc.cpu[layers[i]] != oc.cpu[layers[j]] {
			return oc.cpu[layers[i]] > oc.cpu[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "-- CPU per layer, traced repetitions: %d reps, %.2f CPU s profiled\n", p.reps, total)
	fmt.Fprintf(w, "%-12s %12s %8s\n", "layer", "cpu_s/rep", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-12s %12.6f %7.2f%%\n", l, oc.cpu[l]/reps, 100*oc.cpu[l]/total)
	}
	names := map[string]bool{}
	var order []string
	for _, s := range oc.tr.spans {
		if !names[s.name] {
			names[s.name] = true
			order = append(order, s.name)
		}
	}
	fmt.Fprintf(w, "-- spans, traced repetitions\n%-24s %8s %12s %12s\n", "span", "count", "total_s", "per_rep_s")
	for _, n := range order {
		d, c := oc.tr.total(n)
		fmt.Fprintf(w, "%-24s %8d %12.6f %12.6f\n", n, c, d.Seconds(), d.Seconds()/reps)
	}
	vals := oc.layerMetrics()
	for _, d := range perLayer {
		fmt.Fprintf(w, "layer %s %s %.6g %s\n", oc.w.name, d.name, vals[d.name], d.unit)
	}
}

// summary prints one row per workload for --workload all.
func summary(w io.Writer, ocs []*outcome) {
	fmt.Fprintf(w, "== summary\n%-14s %12s %14s %12s %14s %12s  %s\n",
		"workload", "setup_s", "throughput", "sim_speedup", "peak_heap_mib", "failed_frac", "headline")
	for _, oc := range ocs {
		v := endToEndMetrics(oc.plain)
		h, unit := oc.headline(oc.plain)
		fmt.Fprintf(w, "%-14s %12.6g %14.6g %12.6g %14.6g %12.6g  %s=%.6g %s\n", oc.w.name,
			v["setup_s"], v["throughput"], v["sim_speedup"], v["peak_heap_mib"], oc.plain.failedFrac(),
			oc.w.headline, h, unit)
	}
}

// writeArtefacts stamps the result into a JSON file and, for a traced run,
// writes the spans as Chrome trace_event JSON and the raw CPU profiles, one
// per traced repetition (go tool pprof merges them: -top dir/*.pprof).
func (oc *outcome) writeArtefacts(dir string, log io.Writer) error {
	mode := "untraced"
	if oc.traced != nil {
		mode = "traced"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", oc.w.name, oc.stamp.Seed, mode))
	res := struct {
		Workload string             `json:"workload"`
		Host     stamp              `json:"host"`
		Digest   string             `json:"digest"`
		Result   resultLine         `json:"result"`
		Problems []string           `json:"problems,omitempty"`
		CPU      map[string]float64 `json:"cpu_s_by_layer,omitempty"`
	}{Workload: oc.w.name, Host: oc.stamp, Digest: digestHash(oc.plain.digest), Result: oc.resultLine(), CPU: oc.cpu}
	for _, p := range oc.phases() {
		res.Problems = append(res.Problems, p.problems...)
	}
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(log, base+".result.json", append(js, '\n')); err != nil {
		return err
	}
	if oc.traced == nil {
		return nil
	}
	var tj bytes.Buffer
	if err := oc.tr.writeChrome(&tj, oc.w.name, oc.stamp); err != nil {
		return err
	}
	if err := writeFile(log, base+".trace.json", tj.Bytes()); err != nil {
		return err
	}
	profDir := base + ".cpu"
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return err
	}
	for i, prof := range oc.tr.profiles {
		if err := os.WriteFile(filepath.Join(profDir, fmt.Sprintf("rep-%03d.pprof", i)), prof, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(log, "wrote %d profiles to %s\n", len(oc.tr.profiles), profDir)
	return nil
}

func writeFile(log io.Writer, path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %s\n", path)
	return nil
}
