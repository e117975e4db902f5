package registry

import (
	"errors"
	"strings"
	"testing"
)

// TestWriteOpenMetricsScrape pins the one-scrape rendering: HELP only when
// non-empty, TYPE always, untimestamped shortest-form values, one # EOF.
func TestWriteOpenMetricsScrape(t *testing.T) {
	r := New()
	r.GaugeFunc("a_ratio", "a ratio", L("dev", `x"y`), func() float64 { return 0.1 })
	r.CounterFunc("b_total", "", nil, func() float64 { return 3e21 })
	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP a_ratio a ratio\n" +
		"# TYPE a_ratio gauge\n" +
		"a_ratio{dev=\"x\\\"y\"} 0.1\n" +
		"# TYPE b_total counter\n" +
		"b_total 3e+21\n" +
		"# EOF\n"
	if got := b.String(); got != want {
		t.Errorf("scrape:\n got %q\nwant %q", got, want)
	}
}

// TestTextWriterSampleAt: timestamped samples carry the time in seconds as
// a trailing column.
func TestTextWriterSampleAt(t *testing.T) {
	var b strings.Builder
	w := NewTextWriter(&b)
	w.Family("v", "", Gauge)
	w.SampleAt("v", "", 0.95, 0.2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), "# TYPE v gauge\nv 0.95 0.2\n# EOF\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// TestTextWriterStickyError: the first write error is what Close returns.
func TestTextWriterStickyError(t *testing.T) {
	boom := errors.New("boom")
	w := NewTextWriter(failWriter{boom})
	w.Family("v", strings.Repeat("h", 8192), Gauge) // larger than the buffer
	w.Sample("v", "", 1)
	if err := w.Close(); !errors.Is(err, boom) {
		t.Errorf("Close() = %v, want %v", err, boom)
	}
}
