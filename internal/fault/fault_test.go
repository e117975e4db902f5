package fault

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
)

func TestEpisodeValidate(t *testing.T) {
	cases := []struct {
		name string
		ep   Episode
		ok   bool
	}{
		{"error ok", Episode{Kind: Error, At: 0, Dur: sim.Second, Rate: 0.01}, true},
		{"error rate zero", Episode{Kind: Error, At: 0, Dur: sim.Second}, false},
		{"error rate above one", Episode{Kind: Error, At: 0, Dur: sim.Second, Rate: 1.5}, false},
		{"stall ok", Episode{Kind: Stall, At: sim.Second, Dur: 100 * sim.Millisecond}, true},
		{"zero dur", Episode{Kind: Stall, At: sim.Second}, false},
		{"negative at", Episode{Kind: Stall, At: -1, Dur: sim.Second}, false},
		{"slow ok", Episode{Kind: Slow, Dur: sim.Second, Factor: 10}, true},
		{"slow factor below one", Episode{Kind: Slow, Dur: sim.Second, Factor: 0.5}, false},
		{"gcstorm ok", Episode{Kind: GCStorm, Dur: sim.Second, Rate: 0.05, Stall: sim.Millisecond}, true},
		{"gcstorm no stall", Episode{Kind: GCStorm, Dur: sim.Second, Rate: 0.05}, false},
		{"gcstorm no rate", Episode{Kind: GCStorm, Dur: sim.Second, Stall: sim.Millisecond}, false},
		{"iopscap ok", Episode{Kind: IOPSCap, Dur: sim.Second, Rate: 500}, true},
		{"iopscap no rate", Episode{Kind: IOPSCap, Dur: sim.Second}, false},
		{"unknown kind", Episode{Dur: sim.Second}, false},
	}
	for _, c := range cases {
		err := c.ep.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected a validation error", c.name)
		}
	}
}

func TestPlanValidateNamesEpisode(t *testing.T) {
	p := Plan{Episodes: []Episode{
		{Kind: Error, Dur: sim.Second, Rate: 0.01},
		{Kind: Slow, Dur: sim.Second, Factor: 0}, // invalid
	}}
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "episode 1") {
		t.Errorf("want error naming episode 1, got %v", err)
	}
	if (Plan{}).Validate() != nil {
		t.Error("empty plan should validate")
	}
}

func TestPlanHorizon(t *testing.T) {
	p := Plan{Episodes: []Episode{
		{Kind: Error, At: sim.Second, Dur: sim.Second, Rate: 0.01},
		{Kind: Stall, At: 3 * sim.Second, Dur: 500 * sim.Millisecond},
	}}
	if h := p.Horizon(); h != 3*sim.Second+500*sim.Millisecond {
		t.Errorf("Horizon = %v", h)
	}
	if (Plan{}).Horizon() != 0 {
		t.Error("empty plan should have zero horizon")
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for _, k := range []Kind{Error, Stall, Slow, GCStorm, IOPSCap} {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	if _, err := json.Marshal(Kind(99)); err == nil {
		t.Error("marshalling an unknown kind should fail")
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"nosuch"`), &k); err == nil {
		t.Error("unmarshalling an unknown name should fail")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := Presets()["storm"]
	var back Plan
	if err := json.Unmarshal(p.JSON(), &back); err != nil {
		t.Fatal(err)
	}
	if string(back.JSON()) != string(p.JSON()) {
		t.Error("plan changed across JSON round trip")
	}
}

func TestParsePlanPresets(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := ParsePlan(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if p.Empty() {
			t.Errorf("preset %s is empty", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s does not validate: %v", name, err)
		}
	}
}

func TestParsePlanSpec(t *testing.T) {
	p, err := ParsePlan("slow:at=2s,dur=3s,factor=10;error:at=2s,dur=3s,rate=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Episodes) != 2 {
		t.Fatalf("want 2 episodes, got %d", len(p.Episodes))
	}
	if e := p.Episodes[0]; e.Kind != Slow || e.At != 2*sim.Second || e.Dur != 3*sim.Second || e.Factor != 10 {
		t.Errorf("episode 0 parsed wrong: %+v", e)
	}
	if e := p.Episodes[1]; e.Kind != Error || e.Rate != 0.01 {
		t.Errorf("episode 1 parsed wrong: %+v", e)
	}

	for _, bad := range []string{
		"",                           // empty
		"storm7",                     // not a preset, not an episode
		"error:at=2s",                // missing dur (fails validation)
		"slow:at=2s,dur=1s,warp=9",   // unknown field
		"whoosh:at=1s,dur=1s",        // unknown kind
		"error:at=oops,dur=1s",       // bad duration
		"error:at=1s,dur=1s,rate=x3", // bad float
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
}

// TestParsePlanRejectsEmptyPlan: a spec made only of separators parses to
// no episodes; accepting it would run a "faulted" experiment that injects
// nothing.
func TestParsePlanRejectsEmptyPlan(t *testing.T) {
	for _, spec := range []string{";", " ; ;", ";;;"} {
		if p, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) = %+v, want an error", spec, p)
		}
	}
}

// TestParsePlanRejectsNonFinite: NaN fails every comparison, so a bound
// written as "reject if out of range" lets it through; +Inf passes the
// one-sided bounds.
func TestParsePlanRejectsNonFinite(t *testing.T) {
	for _, spec := range []string{
		"error:at=0s,dur=1s,rate=NaN",
		"gcstorm:at=0s,dur=1s,rate=NaN,stall=1ms",
		"slow:at=0s,dur=1s,factor=NaN",
		"slow:at=0s,dur=1s,factor=+Inf",
		"iopscap:at=0s,dur=1s,rate=+Inf",
		"iopscap:at=0s,dur=1s,rate=NaN",
		"stall:at=0s,dur=1s,factor=NaN",
		"error:at=0s,dur=1s,rate=0.1,factor=-Inf",
	} {
		if p, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) = %+v, want an error", spec, p)
		}
	}
}

// TestParsePlanRejectsEndOverflow: at+dur past the largest virtual time
// wraps negative, which would make the episode never active and Horizon
// read 0.
func TestParsePlanRejectsEndOverflow(t *testing.T) {
	if p, err := ParsePlan("slow:at=2562047h,dur=2562047h,factor=2"); err == nil {
		t.Errorf("overflowing episode accepted: %+v (horizon %v)", p, p.Horizon())
	}
	// The largest representable end is still fine.
	e := Episode{Kind: Stall, At: 1, Dur: math.MaxInt64 - 1}
	if err := e.Validate(); err != nil {
		t.Errorf("episode ending exactly at the last virtual instant rejected: %v", err)
	}
}

// newInjected builds an SSD wrapped in an injector under the given plan.
func newInjected(t *testing.T, plan Plan, seed uint64) (*sim.Engine, *Injector) {
	t.Helper()
	eng := sim.New()
	dev := device.NewSSD(eng, device.OlderGenSSD(), 1)
	inj, err := NewInjector(eng, dev, plan, seed)
	if err != nil {
		t.Fatal(err)
	}
	return eng, inj
}

// runBios submits n reads through the injector and returns the error count
// and each bio's completion time.
func runBios(eng *sim.Engine, inj *Injector, n int) (errs int, done []sim.Time) {
	for i := 0; i < n; i++ {
		b := &bio.Bio{Op: bio.Read, Off: int64(i) * 4096, Size: 4096}
		inj.Submit(b, func(b *bio.Bio) {
			if b.Status == bio.StatusError {
				errs++
			}
			done = append(done, b.Completed)
		})
	}
	eng.Run()
	return errs, done
}

func TestInjectorErrorEpisode(t *testing.T) {
	plan := Plan{Episodes: []Episode{{Kind: Error, At: 0, Dur: 3600 * sim.Second, Rate: 0.5}}}
	eng, inj := newInjected(t, plan, 42)
	errs, _ := runBios(eng, inj, 400)
	if errs == 0 || errs == 400 {
		t.Errorf("rate-0.5 episode errored %d/400 bios", errs)
	}
	if inj.Errors() != uint64(errs) {
		t.Errorf("Errors() = %d, observed %d", inj.Errors(), errs)
	}
}

func TestInjectorPassthroughOutsideEpisodes(t *testing.T) {
	// The plan exists but no episode covers the run: completions must be
	// untouched and error-free.
	plan := Plan{Episodes: []Episode{{Kind: Error, At: 3600 * sim.Second, Dur: sim.Second, Rate: 1}}}
	eng, inj := newInjected(t, plan, 42)
	errs, done := runBios(eng, inj, 50)
	if errs != 0 {
		t.Errorf("%d errors injected outside any episode", errs)
	}
	if len(done) != 50 {
		t.Errorf("%d of 50 bios completed", len(done))
	}
	if inj.DelayedTime() != 0 {
		t.Errorf("injector delayed %v outside any episode", inj.DelayedTime())
	}
}

func TestInjectorStallHoldsUntilEpisodeEnd(t *testing.T) {
	end := 500 * sim.Millisecond
	plan := Plan{Episodes: []Episode{{Kind: Stall, At: 0, Dur: end}}}
	eng, inj := newInjected(t, plan, 1)
	_, done := runBios(eng, inj, 10)
	for _, c := range done {
		if c < end {
			t.Errorf("completion delivered at %v, inside the stall window", c)
		}
	}
	if inj.Stalls() == 0 {
		t.Error("stall episode held nothing")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Episodes: []Episode{
		{Kind: Error, At: 0, Dur: 3600 * sim.Second, Rate: 0.1},
		{Kind: GCStorm, At: 0, Dur: 3600 * sim.Second, Rate: 0.2, Stall: sim.Millisecond},
	}}
	run := func() (int, []sim.Time, uint64) {
		eng, inj := newInjected(t, plan, 7)
		errs, done := runBios(eng, inj, 200)
		return errs, done, inj.GCHits()
	}
	e1, d1, g1 := run()
	e2, d2, g2 := run()
	if e1 != e2 || g1 != g2 || len(d1) != len(d2) {
		t.Fatalf("two identical runs diverged: errs %d/%d gc %d/%d", e1, e2, g1, g2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("completion %d at %v vs %v", i, d1[i], d2[i])
		}
	}
	// A different seed draws a different failure stream.
	eng, inj := newInjected(t, plan, 8)
	e3, _ := runBios(eng, inj, 200)
	g3 := inj.GCHits()
	if e1 == e3 && g1 == g3 {
		t.Error("distinct seeds produced identical failure streams")
	}
}

func TestNewInjectorRejectsBadPlans(t *testing.T) {
	eng := sim.New()
	dev := device.NewSSD(eng, device.OlderGenSSD(), 1)
	if _, err := NewInjector(eng, dev, Plan{}, 1); err == nil {
		t.Error("empty plan should be rejected")
	}
	bad := Plan{Episodes: []Episode{{Kind: Error, Dur: sim.Second}}}
	if _, err := NewInjector(eng, dev, bad, 1); err == nil {
		t.Error("invalid plan should be rejected")
	}
}
