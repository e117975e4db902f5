package sim

import "testing"

// The pacer tests pin that parking is invisible: a storm driven through
// Pacer must hash identically to the same storm driven through refPacer,
// which schedules every tick, idle or not, as a real At event.

// stormPacer is the tick-stream surface the pacer storm drives.
type stormPacer interface {
	SetGap(Time)
	Resume()
	Stop() bool
	Skipped() uint64
	// pendingKey is the pending tick's (at, seq) key; at is -1 once
	// stopped.
	pendingKey() (Time, uint64)
}

type newPacerFunc func(e *Engine, gap Time, fn func() bool) stormPacer

func newParkingPacer(e *Engine, gap Time, fn func() bool) stormPacer { return e.NewPacer(gap, fn) }

func (p *Pacer) pendingKey() (Time, uint64) {
	switch {
	case p.stopped:
		return -1, 0
	case p.parked:
		return p.at, p.seq
	}
	return p.id.e.at, p.id.e.seq
}

// refPacer is the reference: every tick is a real event, and an idle tick
// only counts itself skipped and reschedules.
type refPacer struct {
	e       *Engine
	fn      func() bool
	gap     Time
	id      EventID
	skipped uint64
	idle    bool
	stopped bool
}

func newRefPacer(e *Engine, gap Time, fn func() bool) stormPacer {
	p := &refPacer{e: e, fn: fn, gap: gap}
	p.schedule()
	return p
}

func (p *refPacer) schedule() { p.id = p.e.After(p.gap, p.tick) }

func (p *refPacer) tick() {
	if p.idle {
		p.skipped++
	} else if p.idle = p.fn(); p.stopped {
		return
	}
	p.schedule()
}

func (p *refPacer) SetGap(g Time)   { p.gap = g }
func (p *refPacer) Resume()         { p.idle = false }
func (p *refPacer) Skipped() uint64 { return p.skipped }

func (p *refPacer) Stop() bool {
	if p.stopped {
		return false
	}
	p.stopped = true
	return p.e.Cancel(p.id)
}

func (p *refPacer) pendingKey() (Time, uint64) {
	if p.stopped {
		return -1, 0
	}
	return p.id.e.at, p.id.e.seq
}

// pacerStorm runs a deterministic storm: real events with fan-out and
// cancels, two tickers with SetPeriod, and npacer pacers (1-3) whose ticks
// issue capped work that completes later and resumes them. Pacers park at
// their cap, change gap, get spurious resumes, stop and are replaced. Tiny
// gaps and horizons force same-instant ties between ticks and real events;
// work is piggybacked on a tail event through StillTail, as the device
// batches completions; and RunUntil deadlines often land exactly on a
// pending (often virtual) tick. Every observable callback, every StillTail
// answer, and after each deadline the clock, the engine's seq counter and
// every pending tick's exact key are folded into an FNV-1a hash.
func pacerStorm(seed uint64, budget, npacer int, newPacer newPacerFunc) (hash, skipped uint64, e *Engine) {
	e = New()
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	rng := seed | 1
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	gaps := []Time{1, 2, 3, 5, 64, 1000, 40000}
	horizons := []Time{0, 0, 1, 2, 3, 7, 100, 1000, 5000, 40000, 70000, 3 * Millisecond}
	nextID := uint64(1)
	remaining := budget

	// Piggybacking: work for the current tail event's instant joins it
	// while StillTail holds, otherwise it gets an event of its own.
	type batch struct{ items []uint64 }
	var tail *batch
	var tailID EventID
	tailAt := Time(-1)
	addBatched := func(at Time) {
		id := nextID
		nextID++
		ok := at == tailAt && e.StillTail(tailID)
		mix(boolWord(ok))
		if ok {
			tail.items = append(tail.items, id)
			return
		}
		b := &batch{items: []uint64{id}}
		tailID = e.At(at, func() {
			for _, it := range b.items {
				mix(uint64(e.Now()))
				mix(it)
			}
		})
		tail, tailAt = b, at
	}

	type pacer struct {
		p             stormPacer
		gap           Time
		inflight, cap int
		id            uint64
	}
	var pacers, all []*pacer
	startPacer := func() {
		sp := &pacer{gap: gaps[next(len(gaps))], cap: 1 + next(3), id: nextID}
		nextID++
		sp.p = newPacer(e, sp.gap, func() bool {
			mix(uint64(e.Now()))
			mix(sp.id)
			if sp.inflight >= sp.cap {
				return true
			}
			sp.inflight++
			e.At(e.Now()+horizons[next(len(horizons))], func() {
				sp.inflight--
				mix(uint64(e.Now()))
				mix(sp.id | 1<<63)
				sp.p.Resume()
			})
			if next(3) == 0 {
				addBatched(e.Now() + horizons[next(4)])
			}
			if next(6) == 0 {
				sp.gap = gaps[next(len(gaps))]
				sp.p.SetGap(sp.gap)
			}
			return sp.inflight >= sp.cap
		})
		pacers = append(pacers, sp)
		all = append(all, sp)
	}
	// pacerOp is a random action on a random pacer: a gap change, a
	// spurious resume, or a stop followed by a replacement.
	draining := false
	pacerOp := func() {
		if draining {
			return
		}
		sp := pacers[next(len(pacers))]
		switch next(5) {
		case 0, 1:
			sp.gap = gaps[next(len(gaps))]
			sp.p.SetGap(sp.gap)
		case 2:
			sp.p.Resume()
		case 3:
			mix(boolWord(sp.p.Stop()))
			for i, q := range pacers {
				if q == sp {
					pacers = append(pacers[:i], pacers[i+1:]...)
					break
				}
			}
			startPacer()
		}
	}

	var pending []EventID
	var schedule func()
	schedule = func() {
		id := nextID
		nextID++
		evid := e.At(e.Now()+horizons[next(len(horizons))], func() {
			mix(uint64(e.Now()))
			mix(id)
			for i, fan := 0, next(3); i < fan && remaining > 0; i++ {
				remaining--
				schedule()
			}
			if next(2) == 0 {
				addBatched(e.Now() + horizons[next(4)])
			}
			if next(4) == 0 {
				pacerOp()
			}
			if len(pending) > 0 && next(3) == 0 {
				v := next(len(pending))
				e.Cancel(pending[v])
				pending[v] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
			}
		})
		pending = append(pending, evid)
	}

	for i := 0; i < npacer; i++ {
		startPacer()
	}
	var tickers []*Ticker
	for i := 0; i < 2; i++ {
		id := uint64(1000 + i)
		var tk *Ticker
		tk = e.NewTicker(gaps[4+next(3)], func() {
			mix(uint64(e.Now()))
			mix(id)
			if next(5) == 0 {
				tk.SetPeriod(gaps[4+next(3)])
			}
			if next(3) == 0 {
				pacerOp()
			}
		})
		tickers = append(tickers, tk)
	}
	for i := 0; i < 8; i++ {
		remaining--
		schedule()
	}

	for round := 0; round < 40; round++ {
		d := e.Now() + horizons[next(len(horizons)-1)]
		if next(3) != 0 {
			// Land on a pending tick, or a whole number of gaps past it.
			sp := pacers[next(len(pacers))]
			at, _ := sp.p.pendingKey()
			d = at + Time(next(3))*sp.gap
		}
		e.RunUntil(d)
		mix(uint64(e.Now()))
		mix(e.seq)
		for _, sp := range pacers {
			at, seq := sp.p.pendingKey()
			mix(uint64(at))
			mix(seq)
		}
		if remaining > 0 {
			remaining--
			schedule()
		}
		if next(2) == 0 {
			addBatched(e.Now() + horizons[next(4)])
		}
		if next(2) == 0 {
			pacerOp()
		}
	}

	draining = true
	for _, sp := range pacers {
		mix(boolWord(sp.p.Stop()))
	}
	for _, tk := range tickers {
		tk.Stop()
	}
	e.Run()
	for _, sp := range all {
		skipped += sp.p.Skipped()
	}
	mix(uint64(e.Now()))
	mix(e.seq)
	mix(skipped)
	return h, skipped, e
}

func boolWord(b bool) uint64 {
	if b {
		return 0xf1a9
	}
	return 0xf1a8
}

// checkPacerStorm runs one storm both ways, compares, and returns how many
// ticks ran virtually.
func checkPacerStorm(t *testing.T, seed uint64, budget, npacer int) uint64 {
	t.Helper()
	got, gotSkipped, ge := pacerStorm(seed, budget, npacer, newParkingPacer)
	want, wantSkipped, we := pacerStorm(seed, budget, npacer, newRefPacer)
	if got != want || gotSkipped != wantSkipped {
		t.Fatalf("seed %d, %d pacers: parked trace %#x (%d skipped) != all-real trace %#x (%d skipped)",
			seed, npacer, got, gotSkipped, want, wantSkipped)
	}
	if ge.Pending() != 0 || we.Pending() != 0 {
		t.Fatalf("seed %d: Pending() = %d / %d after the final Run, want 0", seed, ge.Pending(), we.Pending())
	}
	if gotSkipped > 0 && ge.EventsRun()+gotSkipped != we.EventsRun() {
		t.Fatalf("seed %d: %d events + %d virtual ticks != %d all-real events",
			seed, ge.EventsRun(), gotSkipped, we.EventsRun())
	}
	return gotSkipped
}

func TestPacerStormMatchesAllRealTicks(t *testing.T) {
	var skipped uint64
	for seed := uint64(1); seed <= 12; seed++ {
		for npacer := 1; npacer <= 3; npacer++ {
			skipped += checkPacerStorm(t, seed*2654435761, 400, npacer)
		}
	}
	if skipped == 0 {
		t.Fatal("no tick ran virtually: the storm never parked a pacer")
	}
}

func FuzzPacerStorm(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(300))
	f.Add(uint64(42), uint8(1), uint16(50))
	f.Add(uint64(0xdeadbeef), uint8(2), uint16(1000))
	f.Fuzz(func(t *testing.T, seed uint64, npacer uint8, budget uint16) {
		checkPacerStorm(t, seed, int(budget%1200), 1+int(npacer%3))
	})
}

func TestPacerParksAndResumes(t *testing.T) {
	e := New()
	var ticks []Time
	limit := 1
	p := e.NewPacer(10, func() bool {
		ticks = append(ticks, e.Now())
		return len(ticks) >= limit
	})
	e.RunUntil(55)
	if len(ticks) != 1 || ticks[0] != 10 || p.Skipped() != 4 {
		t.Fatalf("ticks %v, skipped %d; want [10] and 4 skipped (20..50)", ticks, p.Skipped())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d with a parked pacer, want 1", e.Pending())
	}
	limit = 3
	p.Resume()
	p.SetGap(5)
	e.RunUntil(75)
	// The pending tick keeps its time (60); the new gap applies after it.
	if len(ticks) != 3 || ticks[1] != 60 || ticks[2] != 65 || p.Skipped() != 6 {
		t.Fatalf("ticks %v, skipped %d; want [10 60 65] and 6 skipped", ticks, p.Skipped())
	}
	e.Run() // only the parked tick is pending: nothing runs
	if e.Pending() != 1 || e.Now() != 75 {
		t.Fatalf("Pending() = %d, Now() = %v after Run with a parked pacer; want 1 and 75", e.Pending(), e.Now())
	}
	if !p.Stop() || p.Stop() {
		t.Error("Stop of a parked pacer must report true once")
	}
	e.Run()
	if e.Pending() != 0 || e.Now() != 75 {
		t.Errorf("Pending() = %d, Now() = %v after Stop and Run; want 0 and 75", e.Pending(), e.Now())
	}
}

// TestStillTailSeesParkedTick pins the StillTail rule: a parked tick at the
// same instant with a higher seq would have followed the event in its slot.
func TestStillTailSeesParkedTick(t *testing.T) {
	e := New()
	a := e.At(20, func() {})
	e.NewPacer(10, func() bool { return true }) // first tick at 10, parks at 20
	e.RunUntil(10)
	if e.StillTail(a) {
		t.Error("event followed by a parked tick at its instant reported as tail")
	}
	e.RunUntil(25) // the tick at 20 runs virtually; the one at 30 takes its seq
	b := e.At(30, func() {})
	if !e.StillTail(b) {
		t.Error("event after the parked tick at its instant not reported as tail")
	}
}
