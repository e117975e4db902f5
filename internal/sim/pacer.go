package sim

// Pacer is a self-rescheduling tick stream whose idle ticks cost nothing.
//
// Every gap its callback runs, like a Ticker's. When the callback reports
// the stream idle — every following tick would be a no-op until some other
// event changes that — the pacer parks: the pending tick gets its exact
// (time, seq) key, as At would assign it, but stays out of the wheel. The
// engine then runs the parked ticks virtually: before it hands out a real
// event, or when RunUntil reaches its deadline, it advances each parked
// pacer past every tick whose key is below that point, consuming one seq per
// tick exactly as the real tick's reschedule would have. Resume turns the
// pending tick back into a real event with the same key. Every real event
// therefore keeps its (time, seq) order, and a simulation driven by a Pacer
// is indistinguishable from one that schedules every tick with At, apart
// from EventsRun.
type Pacer struct {
	eng  *Engine
	fn   func() bool
	tick func() // allocated once; rescheduling is allocation-free
	gap  Time
	// id is the pending tick while it is a real event; at/seq is its key
	// while parked.
	id      EventID
	at      Time
	seq     uint64
	skipped uint64
	parked  bool
	stopped bool
}

// NewPacer starts a tick stream whose first tick runs one gap from now.
// Each tick calls fn; fn returns idle = true when every following tick would
// do nothing until Resume is called. gap must be positive.
func (e *Engine) NewPacer(gap Time, fn func() (idle bool)) *Pacer {
	p := &Pacer{eng: e, fn: fn}
	p.SetGap(gap)
	p.tick = p.run
	p.id = e.At(e.now+p.gap, p.tick)
	return p
}

func (p *Pacer) run() {
	idle := p.fn()
	if p.stopped {
		return
	}
	e := p.eng
	if !idle {
		p.id = e.At(e.now+p.gap, p.tick)
		return
	}
	p.at, p.seq = e.now+p.gap, e.seq
	e.seq++
	p.parked = true
	e.parked = append(e.parked, p)
}

// SetGap changes the tick interval, taking effect when the next tick is
// scheduled: the pending tick keeps its time, as with Ticker.SetPeriod.
func (p *Pacer) SetGap(gap Time) {
	if gap <= 0 {
		panic("sim: pacer gap must be positive")
	}
	p.gap = gap
}

// Resume makes a parked pacer's pending tick a real event again, with the
// key it was parked with. It does nothing if the pacer is not parked.
func (p *Pacer) Resume() {
	if !p.parked {
		return
	}
	e := p.eng
	e.unpark(p)
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = p.at, p.seq, p.tick
	e.count++
	e.enqueue(ev)
	p.id = EventID{ev, ev.gen}
}

// Stop ends the stream. It reports whether a pending tick, real or parked,
// was descheduled; like Ticker.Stop it returns false when already stopped
// or when called from inside the tick's own callback.
func (p *Pacer) Stop() bool {
	if p.stopped {
		return false
	}
	p.stopped = true
	if p.parked {
		p.eng.unpark(p)
		return true
	}
	return p.eng.Cancel(p.id)
}

// Skipped reports how many ticks ran virtually while the pacer was parked.
func (p *Pacer) Skipped() uint64 { return p.skipped }

func (e *Engine) unpark(p *Pacer) {
	p.parked = false
	for i, q := range e.parked {
		if q == p {
			last := len(e.parked) - 1
			e.parked[i] = e.parked[last]
			e.parked[last] = nil
			e.parked = e.parked[:last]
			return
		}
	}
}

// advanceParked runs, as virtual ticks in merged (at, seq) order, every
// parked tick whose key is below (bt, bs); at least one pacer is parked.
// Each tick consumes one seq for its successor. A successor's seq is fresh,
// so it is above every key already assigned — bs and the other pacers'
// pending seqs included — and it stays below the bound exactly while its
// time is strictly earlier than the bound's and every other pacer's pending
// time. That turns each run of one pacer's ticks into closed form.
func (e *Engine) advanceParked(bt Time, bs uint64) {
	for {
		m := e.parked[0]
		for _, p := range e.parked[1:] {
			if p.at < m.at || p.at == m.at && p.seq < m.seq {
				m = p
			}
		}
		if !(m.at < bt || m.at == bt && m.seq < bs) {
			return
		}
		until := bt
		for _, p := range e.parked {
			if p != m && p.at < until {
				until = p.at
			}
		}
		n := Time(1)
		if next := m.at + m.gap; next < until {
			n += (until - next + m.gap - 1) / m.gap
		}
		m.at += n * m.gap
		m.seq = e.seq + uint64(n) - 1
		e.seq += uint64(n)
		m.skipped += uint64(n)
	}
}

// popParked is popNext while pacers are parked: parked ticks below the
// returned event's key, or up to and including a finite limit, run first.
func (e *Engine) popParked(limit Time) *event {
	ev := e.popNext(limit)
	switch {
	case ev != nil:
		e.advanceParked(ev.at, ev.seq)
	case limit != maxTime:
		e.advanceParked(limit+1, 0)
	}
	return ev
}
