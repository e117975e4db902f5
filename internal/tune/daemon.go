package tune

import (
	"fmt"

	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/slo"
)

// The daemon is the closed-loop half of the tuner: it watches a live
// machine's registry through the typed accessors and decides *when* the
// current QoS config has stopped fitting — vrate collapsed against its
// floor, PSI full pressure spiked, or the device started throwing faults —
// and then asks for a re-tune. The policy layer follows the
// dynamic-config-push pattern: a validated Policy can be swapped onto a
// running daemon atomically between checks.

// Policy configures the daemon's triggers. The zero value of a trigger
// field disables that trigger.
type Policy struct {
	// CheckEvery is the metric sampling period; 0 selects 1s.
	CheckEvery sim.Time
	// Cooldown is the minimum time between re-tunes; 0 selects 30s.
	Cooldown sim.Time
	// Consec is how many consecutive breached checks arm a trigger;
	// 0 selects 2 (a single bad sample is noise, not a regime change).
	Consec int

	// VrateFloor triggers when iocost's vrate sits at or below this value:
	// the controller is pinned against its minimum, so either the config's
	// band is wrong or the device degraded.
	VrateFloor float64
	// PressureCeil triggers when system PSI full avg10 meets or exceeds
	// this percentage.
	PressureCeil float64
	// FaultCeil triggers when injected device errors exceed this rate
	// (errors/second) over a check period.
	FaultCeil float64

	// MaxRetunes bounds re-tunes over the daemon's lifetime; 0 means
	// unlimited.
	MaxRetunes int
}

func (p Policy) withDefaults() Policy {
	if p.CheckEvery == 0 {
		p.CheckEvery = sim.Second
	}
	if p.Cooldown == 0 {
		p.Cooldown = 30 * sim.Second
	}
	if p.Consec == 0 {
		p.Consec = 2
	}
	return p
}

// Validate rejects negative or nonsensical policy values.
func (p Policy) Validate() error {
	if p.CheckEvery < 0 || p.Cooldown < 0 {
		return fmt.Errorf("tune: policy periods must be non-negative")
	}
	if p.Consec < 0 || p.MaxRetunes < 0 {
		return fmt.Errorf("tune: policy counts must be non-negative")
	}
	if p.VrateFloor < 0 || p.PressureCeil < 0 || p.FaultCeil < 0 {
		return fmt.Errorf("tune: policy thresholds must be non-negative")
	}
	if p.VrateFloor == 0 && p.PressureCeil == 0 && p.FaultCeil == 0 {
		return fmt.Errorf("tune: policy enables no triggers")
	}
	return nil
}

// Daemon watches one machine's registry and re-tunes on policy triggers.
type Daemon struct {
	eng *sim.Engine
	reg *registry.Registry
	pol Policy

	// retune produces a new QoS for the trigger (typically by running
	// Search on the matching scenario); returning false skips the apply.
	retune func(trigger string) (core.QoS, bool)
	// apply installs the new config on the live controller.
	apply func(core.QoS)
	// logf receives rate-limitable progress lines (key, format, args).
	logf func(key, format string, args ...any)
	// notify, when set, hears about every successful re-tune (the flight
	// recorder snapshots on it).
	notify func(trigger string)

	hyst       slo.Hysteresis
	lastFaults float64
	haveFaults bool

	// Checks, Retunes and LastTrigger expose the daemon's history.
	Checks      int
	Retunes     int
	LastTrigger string
}

// NewDaemon builds a daemon on a machine's engine and registry. retune and
// apply must be non-nil; logf may be nil.
func NewDaemon(eng *sim.Engine, reg *registry.Registry, pol Policy,
	retune func(trigger string) (core.QoS, bool), apply func(core.QoS),
	logf func(key, format string, args ...any)) (*Daemon, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if retune == nil || apply == nil {
		return nil, fmt.Errorf("tune: daemon needs retune and apply callbacks")
	}
	if logf == nil {
		logf = func(string, string, ...any) {}
	}
	d := &Daemon{eng: eng, reg: reg, retune: retune, apply: apply, logf: logf}
	d.setPolicy(pol)
	return d, nil
}

// SetNotify installs an observer called after every successful re-tune with
// the trigger name. The flight recorder uses it to snapshot the machine
// state that led to the re-tune.
func (d *Daemon) SetNotify(fn func(trigger string)) { d.notify = fn }

// SetPolicy swaps the trigger policy; the change takes effect at the next
// check. The breach counter resets so a threshold change never fires on
// samples taken under the old policy; the fire count and the cooldown clock
// persist, so a swap grants no free re-tune.
func (d *Daemon) SetPolicy(pol Policy) error {
	if err := pol.Validate(); err != nil {
		return err
	}
	d.setPolicy(pol)
	return nil
}

// setPolicy installs a validated policy and re-arms the trigger state
// machine (shared semantics with the flight recorder; see slo.Hysteresis)
// with its parameters.
func (d *Daemon) setPolicy(pol Policy) {
	d.pol = pol.withDefaults()
	d.hyst.Consec, d.hyst.Cooldown, d.hyst.MaxFires = d.pol.Consec, d.pol.Cooldown, d.pol.MaxRetunes
	d.hyst.Reset()
}

// Start begins periodic checks on the engine's clock.
func (d *Daemon) Start() {
	d.eng.NewTicker(d.pol.CheckEvery, d.check)
}

// trigger inspects the registry and names the breached trigger, or "".
// Priority order is fixed (vrate, pressure, faults) so a check breaching
// several reports deterministically.
func (d *Daemon) trigger() string {
	if d.pol.VrateFloor > 0 {
		if v, ok := d.reg.GaugeValue("iocost_vrate", nil); ok && v <= d.pol.VrateFloor {
			return "vrate-collapse"
		}
	}
	if d.pol.PressureCeil > 0 {
		if p, ok := d.reg.GaugeValue("io_pressure_full_avg10", scopeSystem); ok && p >= d.pol.PressureCeil {
			return "pressure-spike"
		}
	}
	if d.pol.FaultCeil > 0 {
		if f, ok := d.reg.Sum("fault_errors_total"); ok {
			prev, had := d.lastFaults, d.haveFaults
			d.lastFaults, d.haveFaults = f, true
			if had {
				rate := (f - prev) / d.pol.CheckEvery.Seconds()
				if rate >= d.pol.FaultCeil {
					return "fault-storm"
				}
			}
		}
	}
	return ""
}

func (d *Daemon) check() {
	d.Checks++
	trig := d.trigger()
	now := d.eng.Now()
	armed := d.hyst.Observe(now, trig != "")
	if trig == "" {
		return
	}
	d.logf("breach", "breach %d/%d: %s", d.hyst.Breaches(), d.pol.Consec, trig)
	if !armed {
		return
	}
	qos, ok := d.retune(trig)
	if !ok {
		return
	}
	d.apply(qos)
	d.hyst.Fire(now)
	d.Retunes++
	d.LastTrigger = trig
	d.logf("retune", "re-tuned (%s): %s", trig, qos)
	if d.notify != nil {
		d.notify(trig)
	}
}
