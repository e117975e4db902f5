package slo

import (
	"fmt"

	"github.com/iocost-sim/iocost/internal/sim"
)

// Hysteresis is the trigger arming state machine shared by the tune daemon
// and the flight recorder: a trigger fires only after Consec consecutive
// breached observations, at most once per Cooldown, and at most MaxFires
// times overall. Extracting it pins one set of semantics for every
// dump-on-anomaly consumer:
//
//   - a healthy observation resets the breach streak;
//   - a breached observation while armed but inside the cooldown does NOT
//     reset the streak — the moment the cooldown expires, the next breach
//     fires without re-counting from zero;
//   - a fire attempt that does not go through (the caller's retune/snapshot
//     declined) keeps the streak, so the next breach retries.
//
// The caller drives it in two steps: Observe reports whether the trigger is
// armed and eligible, and Fire records that the action actually happened.
type Hysteresis struct {
	// Consec is how many consecutive breached observations arm the
	// trigger; values < 1 behave as 1.
	Consec int
	// Cooldown is the minimum time between fires; 0 disables the cooldown.
	Cooldown sim.Time
	// MaxFires bounds fires over the lifetime; 0 means unlimited.
	MaxFires int

	breaches int
	fires    int
	lastFire sim.Time
	fired    bool
}

// Observe records one check result and reports whether the trigger is armed
// and eligible to fire now. The caller performs its action and, on success,
// calls Fire.
func (h *Hysteresis) Observe(now sim.Time, breached bool) bool {
	if !breached {
		h.breaches = 0
		return false
	}
	h.breaches++
	consec := h.Consec
	if consec < 1 {
		consec = 1
	}
	if h.breaches < consec {
		return false
	}
	if h.fired && now-h.lastFire < h.Cooldown {
		return false
	}
	if h.MaxFires > 0 && h.fires >= h.MaxFires {
		return false
	}
	return true
}

// Fire records a successful fire at now: the breach streak resets and the
// cooldown window opens.
func (h *Hysteresis) Fire(now sim.Time) {
	h.fires++
	h.lastFire = now
	h.fired = true
	h.breaches = 0
}

// Breaches returns the current consecutive-breach count.
func (h *Hysteresis) Breaches() int { return h.breaches }

// Fires returns how many times the trigger has fired.
func (h *Hysteresis) Fires() int { return h.fires }

// LastFire returns the time of the most recent fire (false if none yet).
func (h *Hysteresis) LastFire() (sim.Time, bool) { return h.lastFire, h.fired }

// Reset clears the breach streak (fires and the cooldown clock persist —
// a config swap must not grant a free immediate re-fire).
func (h *Hysteresis) Reset() { h.breaches = 0 }

// String summarizes the state for logs.
func (h *Hysteresis) String() string {
	return fmt.Sprintf("hysteresis{breaches=%d fires=%d}", h.breaches, h.fires)
}
