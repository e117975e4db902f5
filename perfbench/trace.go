package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/pprof"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 at the top
	rep        int           // repetition the span belongs to
}

// tracer records spans around the benchmark's own calls into the program,
// and a CPU profile of each traced repetition. A nil tracer records
// nothing, so untraced runs pay one branch per call site. It is used from
// one goroutine only.
type tracer struct {
	origin   time.Time
	spans    []span
	open     []int
	rep      int
	prof     *bytes.Buffer
	profiles [][]byte // one gzipped pprof CPU profile per repetition
}

func newTracer() *tracer { return &tracer{origin: time.Now(), rep: -1} }

func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep = rep
	}
}

func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	t.prof = new(bytes.Buffer)
	return pprof.StartCPUProfile(t.prof)
}

func (t *tracer) stopProfile() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	t.profiles = append(t.profiles, t.prof.Bytes())
	t.prof = nil
}

// layerCPU folds every repetition's profile into CPU seconds per layer.
func (t *tracer) layerCPU() (map[string]float64, error) {
	total := map[string]float64{}
	for _, p := range t.profiles {
		cpu, err := layerCPU(p)
		if err != nil {
			return nil, err
		}
		for l, s := range cpu {
			total[l] += s
		}
	}
	return total, nil
}

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: t.parent(), rep: t.rep})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// add records an already-finished span inside the innermost open one.
func (t *tracer) add(name string, from, to time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, start: from, end: to, parent: t.parent(), rep: t.rep})
}

// total returns the summed duration and count of the spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
			n++
		}
	}
	return d, n
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON, which Perfetto
// and chrome://tracing open directly; the host stamp rides in otherData.
func (t *tracer) writeChrome(w io.Writer, workload string, st stamp) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench " + workload}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "benchmark calls"}},
	}
	for i, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: 1, Args: map[string]any{"id": i, "parent": s.parent, "rep": s.rep},
		})
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
		OtherData       stamp         `json:"otherData"`
	}{"ms", events, st}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return bw.Flush()
}
