package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupSamples is how many set-up timings a phase takes before its closed
// loop; setup_s is their median. Each sample repeats the set-up for at
// least setupSampleTime and averages, so microsecond set-ups are timed as
// steadily as millisecond ones.
const (
	setupSamples    = 15
	setupSampleTime = 50 * time.Millisecond
)

// phase accumulates the repetitions of one measurement mode, untraced or
// traced.
type phase struct {
	tr        *tracer // nil for the untraced phase
	reps      int
	setupS    []float64 // host seconds per set-up, one entry per sample
	opS       []float64 // host seconds per repetition's timed operation
	work      float64   // work units completed by the timed operations
	simS      float64   // simulated seconds they covered
	attempted uint64
	failed    uint64
	digest    string // first repetition's digest text
	problems  []string
	counts    map[string]float64 // summed over repetitions
	peakHeap  uint64
	wall      time.Duration // host time of the repetitions, set-up included
	cpu       time.Duration // process CPU time over the same windows
	gcCycles  float64
	gcCPU     float64 // GC CPU seconds
	totalCPU  float64 // all CPU seconds the runtime accounted
}

func newPhase(tr *tracer) *phase { return &phase{tr: tr, counts: map[string]float64{}} }

func (p *phase) fail(ops uint64, format string, args ...any) {
	p.attempted += max(ops, 1)
	p.failed += max(ops, 1)
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// measure runs w in a closed loop until budget is spent, one repetition
// per phase in turn, so host-speed drift over the run falls on every phase
// alike. Every phase runs at least one repetition. A repetition whose
// digest differs from the first one's fails its output check.
func measure(w workload, seed uint64, budget time.Duration, phases ...*phase) error {
	// Starting from a collected heap keeps garbage from earlier work out of
	// the set-up timings.
	runtime.GC()
	for _, p := range phases {
		if !p.sampleSetup(w, seed) {
			return nil
		}
	}
	heap := startHeapSampler()
	defer heap.stop()
	want := ""
	t0 := time.Now()
	for phases[0].reps == 0 || time.Since(t0) < budget {
		for _, p := range phases {
			ok, err := p.rep(w, seed, heap, &want)
			if err != nil || !ok {
				return err
			}
		}
	}
	return nil
}

// sampleSetup times the workload's set-up setupSamples times. It reports
// false when set-up fails, which is counted as a failed operation.
func (p *phase) sampleSetup(w workload, seed uint64) bool {
	for i := 0; i < setupSamples; i++ {
		st, n := time.Now(), 0
		for n == 0 || time.Since(st) < setupSampleTime {
			if _, err := w.setup(seed, nil); err != nil {
				p.fail(1, "set-up: %v", err)
				return false
			}
			n++
		}
		p.setupS = append(p.setupS, time.Since(st).Seconds()/float64(n))
	}
	return true
}

// rep runs one repetition and records it. It reports false when set-up
// failed, and an error when the CPU profiler could not start.
func (p *phase) rep(w workload, seed uint64, heap *heapSampler, want *string) (bool, error) {
	// Every repetition starts from a collected heap, so its peak heap does
	// not depend on where the collector's pacing left the previous one.
	runtime.GC()
	heap.take()
	if err := p.tr.startProfile(); err != nil {
		return false, err
	}
	rt0, cpu0, t0 := readRuntime(), processCPU(), time.Now()

	p.tr.setRep(p.reps)
	var res repResult
	var d float64
	run, err := w.setup(seed, p.tr)
	setupErr := err
	if err == nil {
		sp := p.tr.begin("rep")
		st := time.Now()
		res, err = run()
		d = time.Since(st).Seconds()
		p.tr.end(sp)
	}
	p.tr.setRep(-1)

	p.wall += time.Since(t0)
	p.cpu += processCPU() - cpu0
	rt1 := readRuntime()
	p.gcCycles += rt1.gcCycles - rt0.gcCycles
	p.gcCPU += rt1.gcCPU - rt0.gcCPU
	p.totalCPU += rt1.totalCPU - rt0.totalCPU
	p.peakHeap = max(p.peakHeap, heap.take())
	p.tr.stopProfile()

	p.reps++
	if setupErr != nil {
		p.fail(1, "set-up: %v", setupErr)
		return false, nil
	}
	if err != nil {
		p.fail(res.ops, "rep %d: %v", p.reps, err)
		return true, nil
	}
	p.opS = append(p.opS, d)
	p.work += res.work
	p.simS += res.simS
	for k, v := range res.counts {
		p.counts[k] += v
	}
	if p.digest == "" {
		p.digest = res.digest
	}
	if *want == "" {
		*want = res.digest
	}
	problems := res.problems
	if res.digest != *want {
		problems = append(problems, fmt.Sprintf("digest %s differs from %s", digestHash(res.digest), digestHash(*want)))
	}
	p.attempted += res.ops
	if len(problems) == 0 {
		p.failed += res.opFails
		return true, nil
	}
	p.failed += res.ops
	for _, pr := range problems {
		p.problems = append(p.problems, fmt.Sprintf("rep %d: %s", p.reps, pr))
	}
	return true, nil
}

// throughput is work units per host second of the timed operations: a
// ratio of totals, which host-speed swings between repetitions move less
// than a median of per-repetition rates.
func (p *phase) throughput() float64 { return ratio(p.work, sum(p.opS)) }

// speedup is simulated seconds per host second of the timed operations.
func (p *phase) speedup() float64 { return ratio(p.simS, sum(p.opS)) }

func (p *phase) failedFrac() float64 {
	if p.attempted == 0 {
		return 1
	}
	return float64(p.failed) / float64(p.attempted)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapSampler polls the bytes of heap objects, live or not yet collected,
// and keeps the peak since the last take.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapPollInterval is short next to the gap between collections on every
// workload, so the sampled peak is within a poll's allocation of the true
// one.
const heapPollInterval = time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapPollInterval)
		defer tick.Stop()
		for {
			h.poll()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) poll() {
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	v := sample[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak heap bytes since the previous take, the heap right
// now included, and starts a new window.
func (h *heapSampler) take() uint64 {
	h.poll()
	return h.peak.Swap(0)
}

// stop ends the sampler and waits for it.
func (h *heapSampler) stop() {
	close(h.stopc)
	h.wg.Wait()
}

type runtimeStats struct{ gcCycles, gcCPU, totalCPU float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles: float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
