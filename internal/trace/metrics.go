package trace

import "github.com/iocost-sim/iocost/internal/registry"

// Registry export for recorder health: ring occupancy and drop counts per
// capture stream. Before this existed, events shed by ring wraparound were
// only visible after the fact in Analysis.Dropped — a long capture could
// silently lose its beginning and no metrics export would say so.
//
// A machine can run several recorders at once (the main trace plus the
// flight recorder's black box), and registry family names must be unique,
// so the export is a single set of families with one labeled series per
// stream, registered together via RegisterRecorderMetrics.

// RecorderStream pairs a recorder with its stream label for registration.
type RecorderStream struct {
	// Stream labels the series (convention: "trace" for the main
	// recorder, "flight" for the black box).
	Stream string
	Rec    *Recorder
}

// Cap returns the ring's capacity bound in events.
func (r *Recorder) Cap() int { return r.cap }

// RegisterRecorderMetrics registers per-stream recorder health families on
// r. Labels are pre-built at registration, so gathering allocates nothing
// beyond the collectors themselves.
func RegisterRecorderMetrics(r *registry.Registry, streams []RecorderStream) {
	if len(streams) == 0 {
		return
	}
	labels := make([][]registry.Label, len(streams))
	for i, s := range streams {
		labels[i] = registry.L("stream", s.Stream)
	}
	collector := func(kind registry.Kind, name, help string, value func(*Recorder) float64) {
		r.Collector(name, kind, help, func(emit func([]registry.Label, float64)) {
			for i := range streams {
				emit(labels[i], value(streams[i].Rec))
			}
		})
	}
	collector(registry.Counter, "trace_events_total",
		"telemetry events recorded, per capture stream",
		func(rec *Recorder) float64 { return float64(rec.Total()) })
	collector(registry.Counter, "trace_dropped_total",
		"telemetry events shed by ring wraparound, per capture stream",
		func(rec *Recorder) float64 { return float64(rec.Dropped()) })
	collector(registry.Gauge, "trace_ring_events",
		"telemetry events currently buffered, per capture stream",
		func(rec *Recorder) float64 { return float64(rec.Len()) })
	collector(registry.Gauge, "trace_ring_occupancy",
		"buffered fraction of ring capacity, per capture stream",
		func(rec *Recorder) float64 {
			if rec.Cap() == 0 {
				return 0
			}
			return float64(rec.Len()) / float64(rec.Cap())
		})
}
