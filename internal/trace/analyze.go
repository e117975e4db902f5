package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/metrics"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
	"github.com/iocost-sim/iocost/internal/workload"
)

// CGSummary aggregates one cgroup's activity over a trace.
type CGSummary struct {
	Path string

	Submitted  uint64
	Completed  uint64
	ReadBytes  int64
	WriteBytes int64

	// Throttled counts bios the controller held; ThrottleNS is the summed
	// hold time.
	Throttled  uint64
	ThrottleNS sim.Time

	// Errors, Timeouts and Retries count failure events: error
	// completions, block-layer timeouts, and requeued attempts.
	Errors   uint64
	Timeouts uint64
	Retries  uint64

	// Wait, Device and Total are latency distributions: controller hold,
	// dispatch-to-complete, and submit-to-complete respectively.
	Wait   *stats.Histogram
	Device *stats.Histogram
	Total  *stats.Histogram

	// SomeNS/FullNS are the replayed PSI stall integrals for this scope.
	SomeNS sim.Time
	FullNS sim.Time
}

// Analysis is the result of replaying a trace through the analysis passes.
type Analysis struct {
	// Span is the time range covered by the trace.
	Span sim.Time
	// Events and Dropped echo the trace size.
	Events  int
	Dropped uint64

	// System aggregates all cgroups; ByCGroup is sorted by path.
	System   *CGSummary
	ByCGroup []*CGSummary

	// QueueDepth is the device in-flight depth over time; WaitDepth is the
	// number of bios submitted but not yet dispatched.
	QueueDepth *metrics.Timeline
	WaitDepth  *metrics.Timeline

	// Vrate is the controller's vrate over time (fraction of nominal, from
	// period ticks and re-bases). Periods, Donations and DebtEvents count
	// controller events; MaxDebtNS is the largest debt seen.
	Vrate      *stats.Series
	Periods    uint64
	Donations  uint64
	DebtEvents uint64
	MaxDebtNS  sim.Time
}

func newCGSummary(path string) *CGSummary {
	return &CGSummary{
		Path:   path,
		Wait:   stats.NewHistogram(),
		Device: stats.NewHistogram(),
		Total:  stats.NewHistogram(),
	}
}

// Analyze replays t through the analysis passes: per-cgroup latency
// distributions, throttle-wait attribution, queue-depth timelines and PSI
// pressure reconstruction.
func Analyze(t *Trace) *Analysis {
	a := &Analysis{
		Span:       t.Span(),
		Events:     len(t.Events),
		Dropped:    t.Dropped,
		System:     newCGSummary("<system>"),
		QueueDepth: metrics.NewTimeline(0, 0),
		WaitDepth:  metrics.NewTimeline(0, 0),
		Vrate:      &stats.Series{Name: "vrate"},
	}
	byID := make(map[int32]*CGSummary)
	cgOf := func(id int32) *CGSummary {
		if id == NoCG {
			return a.System
		}
		s := byID[id]
		if s == nil {
			s = newCGSummary(t.CGPath(id))
			byID[id] = s
		}
		return s
	}

	// Pressure reconstruction state, keyed like the summaries.
	sysP := &metrics.Pressure{}
	cgP := make(map[int32]*metrics.Pressure)
	pOf := func(id int32) *metrics.Pressure {
		p := cgP[id]
		if p == nil {
			p = &metrics.Pressure{}
			cgP[id] = p
		}
		return p
	}

	var lastStart sim.Time // At of the pending DeviceStart, keyed by Seq
	var lastStartSeq uint64
	var haveStart bool
	var qdepth, wdepth int
	var end sim.Time

	for i := range t.Events {
		ev := &t.Events[i]
		if ev.At > end {
			end = ev.At
		}
		switch ev.Kind {
		case KindSubmit:
			s := cgOf(ev.CG)
			a.System.Submitted++
			if s != a.System {
				s.Submitted++
			}
			wdepth++
			a.WaitDepth.Record(ev.At, float64(wdepth))
			sysP.Adjust(ev.At, +1, 0)
			if ev.CG != NoCG {
				pOf(ev.CG).Adjust(ev.At, +1, 0)
			}

		case KindThrottleEnd:
			s := cgOf(ev.CG)
			a.System.Throttled++
			a.System.ThrottleNS += sim.Time(ev.Aux)
			if s != a.System {
				s.Throttled++
				s.ThrottleNS += sim.Time(ev.Aux)
			}

		case KindIssue:
			s := cgOf(ev.CG)
			a.System.Wait.Observe(ev.Aux)
			if s != a.System {
				s.Wait.Observe(ev.Aux)
			}

		case KindDispatch:
			qdepth++
			if wdepth > 0 {
				wdepth--
			}
			a.QueueDepth.Record(ev.At, float64(qdepth))
			a.WaitDepth.Record(ev.At, float64(wdepth))
			sysP.Adjust(ev.At, -1, +1)
			if ev.CG != NoCG {
				pOf(ev.CG).Adjust(ev.At, -1, +1)
			}

		case KindDeviceStart:
			lastStart, lastStartSeq, haveStart = ev.At, ev.Seq, true

		case KindComplete:
			s := cgOf(ev.CG)
			a.System.Completed++
			if s != a.System {
				s.Completed++
			}
			bytes := ev.Size
			if bio.Op(ev.Op) == bio.Read {
				a.System.ReadBytes += bytes
				if s != a.System {
					s.ReadBytes += bytes
				}
			} else {
				a.System.WriteBytes += bytes
				if s != a.System {
					s.WriteBytes += bytes
				}
			}
			a.System.Total.Observe(ev.Aux)
			if s != a.System {
				s.Total.Observe(ev.Aux)
			}
			if haveStart && lastStartSeq == ev.Seq {
				dev := int64(ev.At - lastStart)
				a.System.Device.Observe(dev)
				if s != a.System {
					s.Device.Observe(dev)
				}
			}
			haveStart = false
			if qdepth > 0 {
				qdepth--
			}
			a.QueueDepth.Record(ev.At, float64(qdepth))
			sysP.Adjust(ev.At, 0, -1)
			if ev.CG != NoCG {
				pOf(ev.CG).Adjust(ev.At, 0, -1)
			}

		case KindError:
			s := cgOf(ev.CG)
			a.System.Errors++
			if s != a.System {
				s.Errors++
			}
		case KindTimeout:
			s := cgOf(ev.CG)
			a.System.Timeouts++
			if s != a.System {
				s.Timeouts++
			}
		case KindRetry:
			s := cgOf(ev.CG)
			a.System.Retries++
			if s != a.System {
				s.Retries++
			}

		case KindVrate, KindPeriod:
			a.Vrate.Add(ev.At.Seconds(), float64(ev.Aux)/1e6)
			if ev.Kind == KindPeriod {
				a.Periods++
			}
		case KindDonation:
			a.Donations++
		case KindDebt:
			a.DebtEvents++
			if d := sim.Time(ev.Aux); d > a.MaxDebtNS {
				a.MaxDebtNS = d
			}
		}
	}

	a.System.SomeNS = sysP.Some(end).Total
	a.System.FullNS = sysP.Full(end).Total
	for id, s := range byID {
		if p := cgP[id]; p != nil {
			s.SomeNS = p.Some(end).Total
			s.FullNS = p.Full(end).Total
		}
		a.ByCGroup = append(a.ByCGroup, s)
	}
	sort.Slice(a.ByCGroup, func(i, j int) bool { return a.ByCGroup[i].Path < a.ByCGroup[j].Path })
	return a
}

func fmtDur(t sim.Time) string { return time.Duration(t).String() }

func fmtLat(h *stats.Histogram) string {
	if h.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("p50=%s p99=%s max=%s",
		fmtDur(sim.Time(h.Quantile(0.50))),
		fmtDur(sim.Time(h.Quantile(0.99))),
		fmtDur(sim.Time(h.Max())))
}

// stallPct renders a stall integral as a percentage of the span.
func (a *Analysis) stallPct(ns sim.Time) float64 {
	if a.Span <= 0 {
		return 0
	}
	return 100 * float64(ns) / float64(a.Span)
}

func (a *Analysis) formatCG(b *strings.Builder, s *CGSummary) {
	fmt.Fprintf(b, "%s\n", s.Path)
	fmt.Fprintf(b, "  ios      submitted=%d completed=%d read=%s written=%s\n",
		s.Submitted, s.Completed,
		stats.FormatBytes(float64(s.ReadBytes)), stats.FormatBytes(float64(s.WriteBytes)))
	fmt.Fprintf(b, "  latency  %s\n", fmtLat(s.Total))
	fmt.Fprintf(b, "  device   %s\n", fmtLat(s.Device))
	fmt.Fprintf(b, "  throttle %d bios, %s total", s.Throttled, fmtDur(s.ThrottleNS))
	if a.System.ThrottleNS > 0 {
		fmt.Fprintf(b, " (%.1f%% of all throttle wait)",
			100*float64(s.ThrottleNS)/float64(a.System.ThrottleNS))
	}
	b.WriteByte('\n')
	if s.Errors > 0 || s.Timeouts > 0 || s.Retries > 0 {
		fmt.Fprintf(b, "  faults   errors=%d timeouts=%d retries=%d\n",
			s.Errors, s.Timeouts, s.Retries)
	}
	fmt.Fprintf(b, "  pressure some=%.1f%% full=%.1f%% (stall %s / %s)\n",
		a.stallPct(s.SomeNS), a.stallPct(s.FullNS), fmtDur(s.SomeNS), fmtDur(s.FullNS))
}

// Format renders the analysis as a human-readable report.
func (a *Analysis) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events over %s", a.Events, fmtDur(a.Span))
	if a.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped to ring wraparound)", a.Dropped)
	}
	b.WriteString("\n\n")
	a.formatCG(&b, a.System)
	for _, s := range a.ByCGroup {
		a.formatCG(&b, s)
	}
	if a.Periods > 0 || a.Vrate.Len() > 0 {
		fmt.Fprintf(&b, "controller\n")
		if a.Vrate.Len() > 0 {
			fmt.Fprintf(&b, "  vrate    min=%.2f mean=%.2f max=%.2f over %d samples\n",
				a.Vrate.MinY(), a.Vrate.MeanY(), a.Vrate.MaxY(), a.Vrate.Len())
		}
		fmt.Fprintf(&b, "  periods=%d donations=%d debt-events=%d",
			a.Periods, a.Donations, a.DebtEvents)
		if a.DebtEvents > 0 {
			fmt.Fprintf(&b, " max-debt=%s", fmtDur(a.MaxDebtNS))
		}
		b.WriteByte('\n')
	}
	if a.QueueDepth.Buckets() > 0 {
		fmt.Fprintf(&b, "queue depth |%s|\n", a.QueueDepth.Sparkline(60))
	}
	if a.WaitDepth.Buckets() > 0 {
		fmt.Fprintf(&b, "waiting     |%s|\n", a.WaitDepth.Sparkline(60))
	}
	return b.String()
}

// FormatEvents dumps up to limit events (0 = all) as one line each, in
// stored (emission) order.
func FormatEvents(t *Trace, limit int) string {
	var b strings.Builder
	n := len(t.Events)
	if limit > 0 && limit < n {
		n = limit
	}
	for i := 0; i < n; i++ {
		ev := &t.Events[i]
		fmt.Fprintf(&b, "%12d %-14s cg=%-20s", int64(ev.At), ev.Kind, t.CGPath(ev.CG))
		if ev.Kind.BioEvent() {
			op := "R"
			if ev.Op != 0 {
				op = "W"
			}
			fmt.Fprintf(&b, " seq=%-8d %s %8dB @%-12d", ev.Seq, op, ev.Size, ev.Off)
		}
		if ev.Aux != 0 {
			fmt.Fprintf(&b, " aux=%d", ev.Aux)
		}
		b.WriteByte('\n')
	}
	if n < len(t.Events) {
		fmt.Fprintf(&b, "... %d more events\n", len(t.Events)-n)
	}
	return b.String()
}

// DiffResult reports how two traces compare.
type DiffResult struct {
	// Identical is true when cgroup tables and event streams match
	// exactly.
	Identical bool
	// FirstDiverge is the index of the first differing event (-1 when
	// identical or the difference is elsewhere, e.g. the cgroup table).
	FirstDiverge int
	// Report is a human-readable description of the differences.
	Report string
}

// Diff compares two traces semantically: cgroup tables, then the event
// streams event-by-event, then per-kind counts for a summary of what
// changed.
func Diff(a, b *Trace) *DiffResult {
	r := &DiffResult{Identical: true, FirstDiverge: -1}
	var out strings.Builder

	if len(a.CGroups) != len(b.CGroups) {
		r.Identical = false
		fmt.Fprintf(&out, "cgroup tables differ: %d vs %d entries\n", len(a.CGroups), len(b.CGroups))
	} else {
		for i := range a.CGroups {
			if a.CGroups[i] != b.CGroups[i] {
				r.Identical = false
				fmt.Fprintf(&out, "cgroup %d differs: %q vs %q\n", i, a.CGroups[i], b.CGroups[i])
				break
			}
		}
	}

	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	for i := 0; i < n; i++ {
		if a.Events[i] != b.Events[i] {
			r.Identical = false
			r.FirstDiverge = i
			ea, eb := &a.Events[i], &b.Events[i]
			fmt.Fprintf(&out, "first divergence at event %d:\n", i)
			fmt.Fprintf(&out, "  a: at=%d kind=%s cg=%s seq=%d off=%d size=%d aux=%d\n",
				int64(ea.At), ea.Kind, a.CGPath(ea.CG), ea.Seq, ea.Off, ea.Size, ea.Aux)
			fmt.Fprintf(&out, "  b: at=%d kind=%s cg=%s seq=%d off=%d size=%d aux=%d\n",
				int64(eb.At), eb.Kind, b.CGPath(eb.CG), eb.Seq, eb.Off, eb.Size, eb.Aux)
			break
		}
	}
	if len(a.Events) != len(b.Events) {
		r.Identical = false
		fmt.Fprintf(&out, "event counts differ: %d vs %d\n", len(a.Events), len(b.Events))
	}

	if !r.Identical {
		var ka, kb [kindMax + 1]int
		for i := range a.Events {
			ka[a.Events[i].Kind]++
		}
		for i := range b.Events {
			kb[b.Events[i].Kind]++
		}
		for k := Kind(1); k <= kindMax; k++ {
			if ka[k] != kb[k] {
				fmt.Fprintf(&out, "  %-14s %d vs %d (%+d)\n", k, ka[k], kb[k], kb[k]-ka[k])
			}
		}
		sa, sb := Analyze(a), Analyze(b)
		fmt.Fprintf(&out, "  span %s vs %s; throttle %s vs %s; some-stall %.1f%% vs %.1f%%\n",
			fmtDur(sa.Span), fmtDur(sb.Span),
			fmtDur(sa.System.ThrottleNS), fmtDur(sb.System.ThrottleNS),
			sa.stallPct(sa.System.SomeNS), sb.stallPct(sb.System.SomeNS))
	} else {
		fmt.Fprintf(&out, "traces identical: %d events, %d cgroups\n", len(a.Events), len(a.CGroups))
	}
	r.Report = out.String()
	return r
}

// WorkloadOps converts a trace's submit events into a replayable workload
// trace (times relative to the first submit, cgroup paths resolved), the
// capture half of the capture→replay round trip.
func WorkloadOps(t *Trace) []workload.TraceOp {
	var ops []workload.TraceOp
	var base sim.Time
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Kind != KindSubmit {
			continue
		}
		if len(ops) == 0 {
			base = ev.At
		}
		op := workload.TraceOp{
			At:   ev.At - base,
			Op:   bio.Op(ev.Op),
			Off:  ev.Off,
			Size: ev.Size,
		}
		if ev.CG != NoCG {
			op.CG = t.CGPath(ev.CG)
		}
		ops = append(ops, op)
	}
	return ops
}
