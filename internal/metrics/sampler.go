package metrics

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/sim"
)

// Sampler scrapes a metrics registry on a virtual-time interval into
// bounded per-series timelines, giving every registered metric the sampled
// time-series the paper's fleet tooling collects per host. Memory stays
// O(series × MaxPoints) no matter how long the run is: each series is a
// Timeline, so past-capacity samples merge pairwise and the resolution
// doubles.
//
// Sampling happens only on the scrape tick — the instrumented subsystems'
// fast paths are never touched — and everything is driven by simulated
// time, so identical seeds produce identical series and byte-identical
// exports.
type Sampler struct {
	eng *sim.Engine
	reg *registry.Registry
	cfg SamplerConfig

	ticker *sim.Ticker

	// fams groups series by family in registration order; series within a
	// family appear in first-emission order. Both are deterministic.
	fams    []*famSeries
	byFam   map[string]*famSeries
	samples uint64
	lastAt  sim.Time
}

// famSeries is one family's recorded series.
type famSeries struct {
	name, help string
	kind       registry.Kind
	series     []*sampleSeries
	byKey      map[string]*sampleSeries
}

// sampleSeries is one (name, labels) time-series.
type sampleSeries struct {
	name   string // full sample name (may be suffixed, e.g. _count)
	labels string // canonical rendered labels
	pairs  []registry.Label
	tl     *Timeline
}

// SamplerConfig parameterizes a Sampler; zero values select the defaults.
type SamplerConfig struct {
	// Interval is the scrape period (default 100ms of simulated time).
	Interval sim.Time
	// MaxPoints bounds each series' timeline buckets (default 512,
	// minimum 16 — Timeline's own floor).
	MaxPoints int
}

// DefaultSampleInterval is the scrape period used when none is configured.
const DefaultSampleInterval = 100 * sim.Millisecond

// NewSampler builds a sampler over reg on eng's clock. Call Start to begin
// periodic scraping, or Sample to scrape on demand.
func NewSampler(eng *sim.Engine, reg *registry.Registry, cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSampleInterval
	}
	return &Sampler{
		eng:   eng,
		reg:   reg,
		cfg:   cfg,
		byFam: make(map[string]*famSeries),
	}
}

// Interval returns the scrape period.
func (s *Sampler) Interval() sim.Time { return s.cfg.Interval }

// Samples returns how many scrapes have run.
func (s *Sampler) Samples() uint64 { return s.samples }

// Start begins periodic scraping, one scrape every Interval of simulated
// time (the first one Interval from now).
func (s *Sampler) Start() {
	if s.ticker != nil {
		return
	}
	s.ticker = s.eng.NewTicker(s.cfg.Interval, func() { s.Sample() })
}

// Stop halts periodic scraping; recorded series remain readable.
func (s *Sampler) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// Sample scrapes the registry once, at the current simulated time.
func (s *Sampler) Sample() {
	now := s.eng.Now()
	s.samples++
	s.lastAt = now
	for _, fam := range s.reg.Gather() {
		fs := s.byFam[fam.Name]
		if fs == nil {
			fs = &famSeries{
				name: fam.Name, help: fam.Help, kind: fam.Kind,
				byKey: make(map[string]*sampleSeries),
			}
			s.byFam[fam.Name] = fs
			s.fams = append(s.fams, fs)
		}
		for _, smp := range fam.Samples {
			key := smp.Name + smp.Labels
			ser := fs.byKey[key]
			if ser == nil {
				ser = &sampleSeries{
					name:   smp.Name,
					labels: smp.Labels,
					pairs:  smp.LabelPairs,
					tl:     NewTimeline(s.cfg.Interval, s.cfg.MaxPoints),
				}
				fs.byKey[key] = ser
				fs.series = append(fs.series, ser)
			}
			ser.tl.Record(now, smp.Value)
		}
	}
}

// WriteOpenMetrics writes every recorded series in the OpenMetrics text
// format, one timestamped sample line per bucket:
//
//	# HELP iocost_vrate ...
//	# TYPE iocost_vrate gauge
//	iocost_vrate 1 0.1
//	iocost_vrate 0.95 0.2
//
// Families appear in registration order, series in first-emission order,
// samples in time order — identical runs produce byte-identical output.
func (s *Sampler) WriteOpenMetrics(w io.Writer) error {
	t := registry.NewTextWriter(w)
	for _, fam := range s.fams {
		t.Family(fam.name, fam.help, fam.kind)
		for _, ser := range fam.series {
			pts := ser.tl.Series()
			for i := range pts.X {
				t.SampleAt(ser.name, ser.labels, pts.Y[i], pts.X[i])
			}
		}
	}
	return t.Close()
}

// JSONExportVersion identifies the JSON export schema.
const JSONExportVersion = 1

// JSONExport is the structured form of a sampled metric history — the
// schema iocost-sim -check validates.
type JSONExport struct {
	Version    int          `json:"version"`
	IntervalNS int64        `json:"interval_ns"`
	EndNS      int64        `json:"end_ns"`
	Samples    uint64       `json:"samples"`
	Metrics    []JSONMetric `json:"metrics"`
}

// JSONMetric is one series' samples.
type JSONMetric struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Help string `json:"help,omitempty"`
	// Labels hold the series' label pairs; encoding/json sorts map keys,
	// keeping output deterministic.
	Labels map[string]string `json:"labels,omitempty"`
	// Points are (seconds, value) pairs in time order.
	Points [][2]float64 `json:"points"`
}

// Export returns the structured form of the recorded series.
func (s *Sampler) Export() JSONExport {
	out := JSONExport{
		Version:    JSONExportVersion,
		IntervalNS: int64(s.cfg.Interval),
		EndNS:      int64(s.lastAt),
		Samples:    s.samples,
	}
	for _, fam := range s.fams {
		for _, ser := range fam.series {
			m := JSONMetric{Name: ser.name, Kind: fam.kind.String(), Help: fam.help}
			if len(ser.pairs) > 0 {
				m.Labels = make(map[string]string, len(ser.pairs))
				for _, l := range ser.pairs {
					m.Labels[l.Key] = l.Value
				}
			}
			pts := ser.tl.Series()
			m.Points = make([][2]float64, 0, len(pts.X))
			for i := range pts.X {
				m.Points = append(m.Points, [2]float64{pts.X[i], pts.Y[i]})
			}
			out.Metrics = append(out.Metrics, m)
		}
	}
	return out
}

// WriteJSON writes the recorded series as indented JSON (see JSONExport).
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Export())
}

// ValidateExport checks a decoded JSON export against the schema: version,
// positive interval, well-formed metric names and kinds, and time-ordered
// points. It returns the first problem found, or nil.
func ValidateExport(e *JSONExport) error {
	if e.Version != JSONExportVersion {
		return fmt.Errorf("version = %d, want %d", e.Version, JSONExportVersion)
	}
	if e.IntervalNS <= 0 {
		return fmt.Errorf("interval_ns = %d, want > 0", e.IntervalNS)
	}
	kinds := map[string]bool{"counter": true, "gauge": true, "summary": true}
	for i, m := range e.Metrics {
		if m.Name == "" {
			return fmt.Errorf("metrics[%d]: empty name", i)
		}
		if !kinds[m.Kind] {
			return fmt.Errorf("metrics[%d] %s: unknown kind %q", i, m.Name, m.Kind)
		}
		for j := 1; j < len(m.Points); j++ {
			if m.Points[j][0] <= m.Points[j-1][0] {
				return fmt.Errorf("metrics[%d] %s: points[%d] time %v not after %v",
					i, m.Name, j, m.Points[j][0], m.Points[j-1][0])
			}
		}
	}
	return nil
}

// RegisterMetrics contributes the PSI collector's pressure lines to a
// registry: some/full avg10 percentages and stall totals, for the system
// scope and every cgroup that has done IO (label scope, in first-IO order).
func (m *IOPressure) RegisterMetrics(r *registry.Registry) {
	each := func(emit func([]registry.Label, float64), line func(p *Pressure) float64) {
		emit(registry.L("scope", "system"), line(&m.sys))
		for _, cg := range m.order {
			emit(registry.L("scope", cg.Path()), line(m.cgs[cg]))
		}
	}
	r.Collector("io_pressure_some_avg10", registry.Gauge,
		"PSI some stall percentage, 10s horizon",
		func(emit func([]registry.Label, float64)) {
			each(emit, func(p *Pressure) float64 { return p.Some(m.eng.Now()).Avg10 })
		})
	r.Collector("io_pressure_full_avg10", registry.Gauge,
		"PSI full stall percentage, 10s horizon",
		func(emit func([]registry.Label, float64)) {
			each(emit, func(p *Pressure) float64 { return p.Full(m.eng.Now()).Avg10 })
		})
	r.Collector("io_pressure_some_seconds_total", registry.Counter,
		"cumulative PSI some stall time in seconds",
		func(emit func([]registry.Label, float64)) {
			each(emit, func(p *Pressure) float64 { return p.Some(m.eng.Now()).Total.Seconds() })
		})
	r.Collector("io_pressure_full_seconds_total", registry.Counter,
		"cumulative PSI full stall time in seconds",
		func(emit func([]registry.Label, float64)) {
			each(emit, func(p *Pressure) float64 { return p.Full(m.eng.Now()).Total.Seconds() })
		})
}
