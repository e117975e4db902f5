// Package fault implements deterministic, seed-driven fault injection for
// the simulated devices: transient error completions (EIO-style), device
// stalls/hangs, firmware garbage-collection storms, remote-store IOPS-cap
// collapses, and whole-device degradation episodes.
//
// Faults are declared as a Plan — a list of Episodes, each a time window on
// the virtual clock during which one failure mode is active — and applied by
// wrapping any device.Device in an Injector. All randomness (which bio
// errors, how long a GC stall lasts) comes from a seed-derived stream, so a
// run with the same seed and plan reproduces its failures byte-for-byte:
// the property the golden fault-replay tests pin.
//
// The injector perturbs completions only. Combined with the block layer's
// failure semantics (bio.Status, blk.RetryPolicy deadlines and retries) this
// models the full kernel failure path: a stalled request times out in the
// block layer, is retried with backoff, and every controller observes and is
// charged for the retried work.
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"github.com/iocost-sim/iocost/internal/sim"
)

// Kind is a failure mode.
type Kind uint8

const (
	// Error completes bios with bio.StatusError at probability Rate while
	// the episode is active: transient media errors, the EIO a worn-out
	// flash block or a flaky link produces.
	Error Kind = iota + 1
	// Stall holds every completion until the episode ends: a device hang
	// or controller reset. Requests keep being accepted; nothing answers.
	// With a blk.RetryPolicy deadline these turn into timeouts and
	// late completions, exactly as a hung device behaves under blk-mq.
	Stall
	// Slow multiplies observed service time by Factor: whole-device
	// degradation, the aging-SSD behaviour of §Fleet maintenance.
	Slow
	// GCStorm adds a Pareto-tailed stall of at least StallNS to each bio
	// at probability Rate: firmware garbage collection stealing the
	// channels for milliseconds at a time.
	GCStorm
	// IOPSCap serializes completions at Rate per second: a cloud block
	// store collapsing to its provisioned-IOPS floor.
	IOPSCap
)

var kindNames = [...]string{
	Error:   "error",
	Stall:   "stall",
	Slow:    "slow",
	GCStorm: "gcstorm",
	IOPSCap: "iopscap",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromName resolves a failure-mode name ("error", "stall", "slow",
// "gcstorm", "iopscap") to its Kind.
func KindFromName(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name && n != "" {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", name)
}

// MarshalJSON encodes the kind by name so plans embedded in scenario JSON
// stay readable and stable.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) || kindNames[k] == "" {
		return nil, fmt.Errorf("fault: cannot marshal kind %d", uint8(k))
	}
	return json.Marshal(kindNames[k])
}

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	got, err := KindFromName(s)
	if err != nil {
		return err
	}
	*k = got
	return nil
}

// Episode is one failure window: Kind is active from At for Dur.
type Episode struct {
	Kind Kind `json:"kind"`
	// At is when the episode begins (virtual time).
	At sim.Time `json:"at"`
	// Dur is how long it lasts.
	Dur sim.Time `json:"dur"`
	// Rate is the kind-specific intensity: per-bio error probability
	// (Error), per-bio stall probability (GCStorm), or admitted
	// completions per second (IOPSCap).
	Rate float64 `json:"rate,omitempty"`
	// Factor is the service-time multiplier for Slow (>= 1).
	Factor float64 `json:"factor,omitempty"`
	// Stall is the minimum added stall for GCStorm; actual stalls are
	// Pareto-distributed (alpha 1.5) above it.
	Stall sim.Time `json:"stall,omitempty"`
}

// End returns the time the episode stops being active.
func (e Episode) End() sim.Time { return e.At + e.Dur }

// active reports whether the episode covers time t.
func (e Episode) active(t sim.Time) bool { return t >= e.At && t < e.End() }

// Validate checks the episode is well-formed.
func (e Episode) Validate() error {
	if e.Kind < Error || e.Kind > IOPSCap {
		return fmt.Errorf("fault: episode has unknown kind %d", uint8(e.Kind))
	}
	if e.At < 0 || e.Dur <= 0 {
		return fmt.Errorf("fault: %s episode needs at >= 0 and dur > 0 (at=%v dur=%v)", e.Kind, e.At, e.Dur)
	}
	if e.Dur > math.MaxInt64-e.At {
		return fmt.Errorf("fault: %s episode ends past the end of virtual time (at=%v dur=%v)", e.Kind, e.At, e.Dur)
	}
	// NaN compares false against every bound below, so finiteness is
	// checked first and on every kind.
	if !finite(e.Rate) || !finite(e.Factor) {
		return fmt.Errorf("fault: %s episode needs finite rate and factor (rate=%v factor=%v)", e.Kind, e.Rate, e.Factor)
	}
	switch e.Kind {
	case Error:
		if e.Rate <= 0 || e.Rate > 1 {
			return fmt.Errorf("fault: error episode needs rate in (0,1], got %v", e.Rate)
		}
	case Slow:
		if e.Factor < 1 {
			return fmt.Errorf("fault: slow episode needs factor >= 1, got %v", e.Factor)
		}
	case GCStorm:
		if e.Rate <= 0 || e.Rate > 1 {
			return fmt.Errorf("fault: gcstorm episode needs rate in (0,1], got %v", e.Rate)
		}
		if e.Stall <= 0 {
			return fmt.Errorf("fault: gcstorm episode needs stall > 0, got %v", e.Stall)
		}
	case IOPSCap:
		if e.Rate <= 0 {
			return fmt.Errorf("fault: iopscap episode needs rate > 0 IOPS, got %v", e.Rate)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (e Episode) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:at=%v,dur=%v", e.Kind, e.At, e.Dur)
	if e.Rate != 0 {
		fmt.Fprintf(&b, ",rate=%g", e.Rate)
	}
	if e.Factor != 0 {
		fmt.Fprintf(&b, ",factor=%g", e.Factor)
	}
	if e.Stall != 0 {
		fmt.Fprintf(&b, ",stall=%v", e.Stall)
	}
	return b.String()
}

// Plan is a declarative fault schedule: the episodes a device suffers over
// a run. The zero Plan injects nothing.
type Plan struct {
	Episodes []Episode `json:"episodes"`
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Episodes) == 0 }

// Validate checks every episode.
func (p Plan) Validate() error {
	for i, e := range p.Episodes {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("episode %d: %w", i, err)
		}
	}
	return nil
}

// Horizon returns the time the last episode ends — how long a run must
// continue past the workload for all injected failures to play out.
func (p Plan) Horizon() sim.Time {
	var h sim.Time
	for _, e := range p.Episodes {
		if end := e.End(); end > h {
			h = end
		}
	}
	return h
}

func (p Plan) String() string {
	parts := make([]string, len(p.Episodes))
	for i, e := range p.Episodes {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// JSON renders the plan as indented JSON.
func (p Plan) JSON() []byte {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		panic(err)
	}
	return data
}
