// Package flight is the always-on black box: a bounded-memory telemetry
// ring that every machine can afford to keep running, plus a trigger state
// machine that freezes the last N seconds into a versioned incident bundle
// the moment something goes wrong — SLO burn, vrate collapse, PSI spike,
// fault-storm onset, or an explicit caller trigger (sanitizer failure,
// tune-daemon re-tune).
//
// The recorder rides entirely on existing capture paths: the ring is an
// internal/trace Recorder (read-only blk observer + controller event sink),
// triggers read the registry through the alloc-free typed accessors, and
// SLO rules evaluate on the virtual clock. Steady-state cost is therefore
// the trace ring's — no allocations, no schedule perturbation — and the
// whole-stack zero-alloc pin covers a flight-enabled machine.
//
// Trigger arming shares slo.Hysteresis with the auto-tune daemon:
// consecutive-breach counts, cooldown windows and lifetime caps behave
// identically in both subsystems, pinned by both packages' tests.
package flight

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/slo"
	"github.com/iocost-sim/iocost/internal/trace"
)

// Defaults.
const (
	// DefaultCap bounds the black-box ring (events); at ~40 bytes each
	// that is a few MB per machine.
	DefaultCap = 1 << 17
	// DefaultWindow is how far back a snapshot reaches.
	DefaultWindow = 10 * sim.Second
	// DefaultCheckEvery is the trigger evaluation period.
	DefaultCheckEvery = 250 * sim.Millisecond
	// DefaultCooldown spaces automatic snapshots.
	DefaultCooldown = 5 * sim.Second
	// DefaultConsec arms metric triggers after this many consecutive
	// breached checks.
	DefaultConsec = 2
	// DefaultMaxIncidents bounds retained bundles per run.
	DefaultMaxIncidents = 8
)

// Config configures a flight recorder. The zero value is a valid always-on
// recorder with no automatic triggers (manual Trigger only).
type Config struct {
	// Cap bounds the trace ring in events (0 selects DefaultCap).
	Cap int
	// Window is the snapshot look-back (0 selects DefaultWindow).
	Window sim.Time
	// CheckEvery is the trigger evaluation period (0 selects
	// DefaultCheckEvery).
	CheckEvery sim.Time
	// Consec and Cooldown are the shared hysteresis parameters (0 selects
	// DefaultConsec / DefaultCooldown).
	Consec   int
	Cooldown sim.Time
	// MaxIncidents bounds bundles captured per run (0 selects
	// DefaultMaxIncidents).
	MaxIncidents int

	// Metric triggers, evaluated against the bound registry; 0 disables
	// each. Thresholds have tune.Policy semantics.
	VrateFloor   float64
	PressureCeil float64
	FaultCeil    float64

	// Rules, when non-empty, adds an SLO burn-rate trigger (any rule
	// firing counts as a breach).
	Rules []slo.Rule

	// Plan, when non-empty, adds a fault-storm-start trigger: the first
	// check inside each episode snapshots immediately (no consecutive-
	// breach requirement — the onset IS the incident), subject to cooldown
	// and MaxIncidents. The plan also drives span blame attribution.
	Plan fault.Plan

	// Dir, when set, writes each bundle to
	// Dir/incident-NNN-<reason>.json as it is captured.
	Dir string
	// Meta is carried verbatim into every bundle (seed, scenario, host).
	Meta map[string]string
}

func (c Config) withDefaults() Config {
	if c.Cap == 0 {
		c.Cap = DefaultCap
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = DefaultCheckEvery
	}
	if c.Consec == 0 {
		c.Consec = DefaultConsec
	}
	if c.Cooldown == 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.MaxIncidents == 0 {
		c.MaxIncidents = DefaultMaxIncidents
	}
	return c
}

// Validate rejects malformed configurations.
func (c Config) Validate() error {
	if c.Cap < 0 || c.Consec < 0 || c.MaxIncidents < 0 {
		return fmt.Errorf("flight: config counts must be non-negative")
	}
	if c.Window < 0 || c.CheckEvery < 0 || c.Cooldown < 0 {
		return fmt.Errorf("flight: config periods must be non-negative")
	}
	if c.VrateFloor < 0 || c.PressureCeil < 0 || c.FaultCeil < 0 {
		return fmt.Errorf("flight: config thresholds must be non-negative")
	}
	for _, r := range c.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	return nil
}

// scopeSystem matches the PSI collector's system-scope series.
var scopeSystem = registry.L("scope", "system")

// Recorder is a live flight recorder on one machine.
type Recorder struct {
	eng *sim.Engine
	cfg Config
	rec *trace.Recorder
	reg *registry.Registry
	ev  *slo.Evaluator

	hyst    slo.Hysteresis
	epFired []bool

	lastFaults float64
	haveFaults bool
	enabled    bool

	incidents []*Bundle
	// Checks counts trigger evaluations; Triggered counts snapshots
	// (including ones beyond MaxIncidents whose bundles were dropped);
	// DroppedIncidents counts those drops.
	Checks           int
	Triggered        int
	DroppedIncidents int
}

// New builds a recorder on a machine's engine. It starts enabled; Attach,
// BindRegistry and Start wire and arm it.
func New(eng *sim.Engine, cfg Config) (*Recorder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r := &Recorder{
		eng:     eng,
		cfg:     cfg,
		rec:     trace.NewRecorder(eng, cfg.Cap),
		epFired: make([]bool, len(cfg.Plan.Episodes)),
		enabled: true,
	}
	r.hyst = slo.Hysteresis{Consec: cfg.Consec, Cooldown: cfg.Cooldown}
	return r, nil
}

// Attach subscribes the black-box ring to a block queue.
func (r *Recorder) Attach(q *blk.Queue) { r.rec.Attach(q) }

// TraceRecorder exposes the internal ring — it is the core.EventSink to
// install (or tee) on the controller so snapshots carry vrate/debt/donation
// context.
func (r *Recorder) TraceRecorder() *trace.Recorder { return r.rec }

// BindRegistry connects the metric triggers and SLO rules to a machine
// registry. Must be called before Start when any metric trigger or rule is
// configured.
func (r *Recorder) BindRegistry(reg *registry.Registry) error {
	r.reg = reg
	if len(r.cfg.Rules) > 0 {
		ev, err := slo.NewEvaluator(r.eng, slo.RegistrySource{Reg: reg}, r.cfg.Rules, r.cfg.CheckEvery)
		if err != nil {
			return err
		}
		r.ev = ev
	}
	return nil
}

// Evaluator returns the SLO evaluator (nil when no rules are configured).
func (r *Recorder) Evaluator() *slo.Evaluator { return r.ev }

// Start begins trigger checks on the engine's clock.
func (r *Recorder) Start() error {
	if r.reg == nil && (r.cfg.VrateFloor > 0 || r.cfg.PressureCeil > 0 ||
		r.cfg.FaultCeil > 0 || len(r.cfg.Rules) > 0) {
		return fmt.Errorf("flight: metric triggers configured but no registry bound")
	}
	r.eng.NewTicker(r.cfg.CheckEvery, r.check)
	return nil
}

// SetEnabled pauses or resumes the recorder: both capture and triggers.
// A disabled recorder does no work and captures nothing — byte-identical
// to a machine without one.
func (r *Recorder) SetEnabled(on bool) {
	r.enabled = on
	r.rec.SetEnabled(on)
}

// Enabled reports whether the recorder is live.
func (r *Recorder) Enabled() bool { return r.enabled }

// Incidents returns the captured bundles in trigger order.
func (r *Recorder) Incidents() []*Bundle { return r.incidents }

// trigger names the breached metric trigger, or "". Priority order is
// fixed (vrate, pressure, faults, slo) so a check breaching several
// reports deterministically — the same convention as tune.Daemon.
func (r *Recorder) trigger() string {
	if r.cfg.VrateFloor > 0 {
		if v, ok := r.reg.GaugeValue("iocost_vrate", nil); ok && v <= r.cfg.VrateFloor {
			return "vrate-collapse"
		}
	}
	if r.cfg.PressureCeil > 0 {
		if p, ok := r.reg.GaugeValue("io_pressure_full_avg10", scopeSystem); ok && p >= r.cfg.PressureCeil {
			return "pressure-spike"
		}
	}
	if r.cfg.FaultCeil > 0 {
		if f, ok := r.reg.Sum("fault_errors_total"); ok {
			prev, had := r.lastFaults, r.haveFaults
			r.lastFaults, r.haveFaults = f, true
			if had {
				rate := (f - prev) / r.cfg.CheckEvery.Seconds()
				if rate >= r.cfg.FaultCeil {
					return "fault-storm"
				}
			}
		}
	}
	if r.ev != nil && r.ev.AnyActive() {
		return "slo-burn"
	}
	return ""
}

// check is the ticker body: evaluate SLO rules, then episode-onset
// triggers, then hysteresis-armed metric triggers. Steady-state healthy
// checks allocate nothing.
func (r *Recorder) check() {
	if !r.enabled {
		return
	}
	r.Checks++
	now := r.eng.Now()
	if r.ev != nil {
		r.ev.Check()
	}

	// Fault-storm onset: the first check inside an episode snapshots
	// immediately — by the time a breach streak built up, the interesting
	// lead-in would have aged out of the window.
	for i := range r.cfg.Plan.Episodes {
		ep := &r.cfg.Plan.Episodes[i]
		if r.epFired[i] || now < ep.At || now >= ep.End() {
			continue
		}
		if fired, _ := r.hyst.LastFire(); r.hyst.Fires() > 0 && now-fired < r.cfg.Cooldown {
			continue // retry next check; epFired stays false
		}
		r.snapshot("fault-storm-start:" + ep.Kind.String())
		r.hyst.Fire(now)
		r.epFired[i] = true
	}

	var trig string
	if r.reg != nil {
		trig = r.trigger()
	}
	if !r.hyst.Observe(now, trig != "") {
		return
	}
	r.snapshot(trig)
	r.hyst.Fire(now)
}

// Trigger fires a manual snapshot (sanitizer failure, tune-daemon notify,
// operator request): no hysteresis, no cooldown, but MaxIncidents still
// bounds memory. Returns the bundle (nil when disabled or over the cap).
func (r *Recorder) Trigger(reason string) *Bundle {
	if !r.enabled {
		return nil
	}
	return r.snapshot(reason)
}

// snapshot freezes the window into a bundle.
func (r *Recorder) snapshot(reason string) *Bundle {
	r.Triggered++
	if len(r.incidents) >= r.cfg.MaxIncidents {
		r.DroppedIncidents++
		return nil
	}
	now := r.eng.Now()
	b := BundleFromTrace(r.rec.Trace(), reason, now, r.cfg.Window, r.cfg.Plan, r.cfg.Meta)
	b.Registry = scrape(r.reg)
	if r.ev != nil {
		b.Alerts = r.ev.Alerts()
	}
	r.incidents = append(r.incidents, b)
	if r.cfg.Dir != "" {
		path := fmt.Sprintf("%s/incident-%03d-%s.json", r.cfg.Dir, len(r.incidents)-1, sanitize(reason))
		if err := b.WriteFile(path); err != nil {
			// Capture must never take the run down; the bundle stays
			// available in memory.
			fmt.Printf("flight: writing %s: %v\n", path, err)
		}
	}
	return b
}

// sanitize maps a trigger reason to a filename-safe slug.
func sanitize(reason string) string {
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
			b.WriteRune(c)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}
