// Package registry is the simulator's unified metrics registry: one
// instrumentation surface every layer registers into — devices, the block
// layer, all seven controllers, the cgroup hierarchy, the memory pool and
// the PSI collector — and one place samplers and tools read from.
//
// The design keeps instrumentation strictly off the per-bio fast path:
// metrics are *read callbacks* over state the subsystems already maintain,
// evaluated only when a scrape happens (Gather). Registering a thousand
// metrics costs the hot path nothing; an un-scraped registry costs nothing
// at all. The few places that need new counting (device per-direction IO
// counters, GC stalls) use plain integer fields in their owners, not
// registry objects, so the invariant holds by construction.
//
// Everything about a scrape is deterministic: families gather in
// registration order, a collector's samples appear in emission order, and
// label rendering is canonical — identical seeds therefore produce
// byte-identical exports. The OpenMetrics text writer lives here
// (TextWriter, Registry.WriteOpenMetrics); internal/metrics holds the
// sampler that records series over time and its JSON export.
package registry

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/stats"
)

// Kind classifies a metric family, matching OpenMetrics types.
type Kind uint8

const (
	// Counter is a monotonically non-decreasing cumulative value.
	Counter Kind = iota
	// Gauge is a point-in-time value that can go up and down.
	Gauge
	// Summary is a quantile summary derived from a histogram.
	Summary
)

func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Summary:
		return "summary"
	default:
		return "unknown"
	}
}

// Label is one name/value pair. Labels are kept in the order the
// registering code provides them (callers use one fixed order per family),
// which keeps rendered series identifiers canonical without sorting.
type Label struct {
	Key, Value string
}

// L builds a label list from alternating key, value strings.
func L(kv ...string) []Label {
	if len(kv)%2 != 0 {
		panic("registry: L requires key/value pairs")
	}
	ls := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// RenderLabels renders labels canonically: `{k="v",k2="v2"}`, or "" for
// none. Values are escaped per the OpenMetrics text format.
func RenderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Emit delivers one sample from a collector. name is the full sample name
// (usually the family name; summaries append _count/_sum suffixes).
type Emit func(name string, labels []Label, v float64)

// Family is one registered metric family.
type Family struct {
	Name, Help string
	Kind       Kind
	collect    func(Emit)
}

// Registry holds metric families in registration order.
type Registry struct {
	fams   []*Family
	byName map[string]*Family

	// Typed-lookup state (access.go): one reusable filter plus Emit
	// closures built once here, so per-lookup cost is zero allocations.
	scratch       filter
	filterEmit    Emit
	sumFilterEmit Emit
}

// New returns an empty registry.
func New() *Registry {
	r := &Registry{byName: make(map[string]*Family)}
	r.filterEmit = r.emitFn
	r.sumFilterEmit = r.sumEmit
	return r
}

// validName enforces the Prometheus/OpenMetrics metric-name charset.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Register adds a family whose samples come from collect at gather time.
// Collectors must emit deterministically (fixed order for a given state) —
// never from map iteration. Duplicate or invalid names panic: registration
// happens at assembly time, from code.
func (r *Registry) Register(name string, kind Kind, help string, collect func(Emit)) {
	if !validName(name) {
		panic(fmt.Sprintf("registry: invalid metric name %q", name))
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("registry: duplicate metric %q", name))
	}
	f := &Family{Name: name, Help: help, Kind: kind, collect: collect}
	r.fams = append(r.fams, f)
	r.byName[name] = f
}

// GaugeFunc registers a single-series gauge read from fn.
func (r *Registry) GaugeFunc(name, help string, labels []Label, fn func() float64) {
	r.Register(name, Gauge, help, func(emit Emit) { emit(name, labels, fn()) })
}

// CounterFunc registers a single-series cumulative counter read from fn.
// fn must be non-decreasing over simulated time.
func (r *Registry) CounterFunc(name, help string, labels []Label, fn func() float64) {
	r.Register(name, Counter, help, func(emit Emit) { emit(name, labels, fn()) })
}

// summaryQuantiles are the quantiles a Histogram family exports.
var summaryQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99},
}

// Histogram registers h as a quantile summary: one series per quantile
// (label quantile="0.5" etc.) plus <name>_count and <name>_sum. The
// per-quantile label slices are fixed at registration, so collecting the
// family allocates nothing.
func (r *Registry) Histogram(name, help string, labels []Label, h *stats.Histogram) {
	qls := make([][]Label, len(summaryQuantiles))
	for i, sq := range summaryQuantiles {
		ql := make([]Label, 0, len(labels)+1)
		ql = append(ql, labels...)
		qls[i] = append(ql, Label{Key: "quantile", Value: sq.label})
	}
	countName, sumName := name+"_count", name+"_sum"
	r.Register(name, Summary, help, func(emit Emit) {
		for i, sq := range summaryQuantiles {
			emit(name, qls[i], float64(h.Quantile(sq.q)))
		}
		emit(countName, labels, float64(h.Count()))
		emit(sumName, labels, h.Mean()*float64(h.Count()))
	})
}

// Collector registers a family with a dynamic series set (per-cgroup
// metrics, per-direction breakdowns): fn is called at gather time and emits
// one sample per series, in a deterministic order of fn's choosing. The
// emit adapter is built once here (collects never nest), so the registry
// adds no per-collect allocations on top of fn's own.
func (r *Registry) Collector(name string, kind Kind, help string, fn func(emit func(labels []Label, v float64))) {
	var cur Emit
	adapter := func(labels []Label, v float64) { cur(name, labels, v) }
	r.Register(name, kind, help, func(emit Emit) {
		cur = emit
		fn(adapter)
		cur = nil
	})
}

// Registrar is implemented by subsystems that can contribute metrics —
// controllers, devices, the memory pool. Assembly code (exp.NewMachine)
// feeds every Registrar it builds into the machine's registry.
type Registrar interface {
	RegisterMetrics(r *Registry)
}

// Sample is one gathered value.
type Sample struct {
	// Name is the full sample name (family name, possibly suffixed).
	Name string
	// Labels is the canonical rendered label string ("" for none).
	Labels string
	// LabelPairs are the raw pairs behind Labels, for structured export.
	LabelPairs []Label
	Value      float64
}

// FamilySamples is one family's gathered samples.
type FamilySamples struct {
	Name, Help string
	Kind       Kind
	Samples    []Sample
}

// Gather evaluates every collector and returns the current samples,
// families in registration order.
func (r *Registry) Gather() []FamilySamples {
	out := make([]FamilySamples, 0, len(r.fams))
	for _, f := range r.fams {
		fs := FamilySamples{Name: f.Name, Help: f.Help, Kind: f.Kind}
		f.collect(func(name string, labels []Label, v float64) {
			fs.Samples = append(fs.Samples, Sample{
				Name:       name,
				Labels:     RenderLabels(labels),
				LabelPairs: labels,
				Value:      v,
			})
		})
		out = append(out, fs)
	}
	return out
}

// Families returns the registered families in registration order.
func (r *Registry) Families() []*Family { return r.fams }

// Len returns the number of registered families.
func (r *Registry) Len() int { return len(r.fams) }
