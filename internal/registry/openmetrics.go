package registry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// TextWriter renders the OpenMetrics text format: per family an optional
// `# HELP` line and a `# TYPE` line, then its sample lines, and one closing
// `# EOF`. It is the single OpenMetrics writer in the simulator — the
// sampler's timestamped history (internal/metrics) and one-scrape exports
// (Registry.WriteOpenMetrics, the fleet roll-ups) both render through it.
// Values and timestamps print in the shortest form that round-trips, so
// identical inputs give identical bytes.
//
// Output is buffered and the first write error sticks: later writes are
// dropped and Close returns it.
type TextWriter struct{ w *bufio.Writer }

// NewTextWriter returns a writer rendering onto w.
func NewTextWriter(w io.Writer) *TextWriter { return &TextWriter{bufio.NewWriter(w)} }

// Family starts a family: its HELP line (omitted when help is empty) and
// its TYPE line.
func (t *TextWriter) Family(name, help string, kind Kind) {
	if help != "" {
		fmt.Fprintf(t.w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(t.w, "# TYPE %s %s\n", name, kind)
}

// Sample writes one untimestamped sample line: name{labels} value. labels
// is the rendered form (RenderLabels).
func (t *TextWriter) Sample(name, labels string, v float64) {
	t.sample(name, labels, v)
	t.w.WriteByte('\n')
}

// SampleAt writes one sample line with a timestamp in seconds:
// name{labels} value ts.
func (t *TextWriter) SampleAt(name, labels string, v, ts float64) {
	t.sample(name, labels, v)
	t.w.WriteByte(' ')
	t.float(ts)
	t.w.WriteByte('\n')
}

func (t *TextWriter) sample(name, labels string, v float64) {
	t.w.WriteString(name)
	t.w.WriteString(labels)
	t.w.WriteByte(' ')
	t.float(v)
}

// float writes v in its shortest round-trip form without allocating.
func (t *TextWriter) float(v float64) {
	t.w.Write(strconv.AppendFloat(t.w.AvailableBuffer(), v, 'g', -1, 64))
}

// Close writes the closing `# EOF` line, flushes, and returns the first
// write error. It does not close the underlying writer.
func (t *TextWriter) Close() error {
	t.w.WriteString("# EOF\n")
	return t.w.Flush()
}

// WriteOpenMetrics renders one scrape of the registry — the current value
// of every series, families in registration order, no timestamps.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	t := NewTextWriter(w)
	for _, fam := range r.Gather() {
		t.Family(fam.Name, fam.Help, fam.Kind)
		for _, s := range fam.Samples {
			t.Sample(s.Name, s.Labels, s.Value)
		}
	}
	return t.Close()
}
