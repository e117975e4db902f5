// Package slo evaluates multi-window burn-rate alert rules over the live
// metrics registry — the Google-SRE alerting pattern (a fast window to
// catch cliffs quickly, a slow window to suppress blips) transplanted onto
// the simulator's virtual clock. Nothing here reads a wall clock: rules are
// evaluated on engine ticks against counter snapshots kept in a
// pre-allocated ring, so an evaluator is deterministic, replayable, and
// allocation-free in the steady state (alert history is only appended on
// state transitions).
//
// The error budget is defined over bio completions: a "bad event" is an
// error or timeout completion, and a rule burns at rate
//
//	burn = badFrac / (1 - target)
//
// so burn 1.0 consumes exactly the budget over the SLO period, and the
// classic fast-burn threshold (e.g. 14.4) catches outages in minutes.
//
// The package also holds Hysteresis, the trigger arming state machine the
// flight recorder and the tune daemon share.
package slo

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/sim"
)

// Rule is one multi-window burn-rate alert.
type Rule struct {
	// Name identifies the alert in output and bundles.
	Name string
	// Target is the availability objective (0 < Target < 1), e.g. 0.999.
	Target float64
	// Short and Long are the two look-back windows; the alert fires only
	// when BOTH windows burn at or above Burn (short = still happening,
	// long = significant).
	Short sim.Time
	Long  sim.Time
	// Burn is the burn-rate threshold (> 0).
	Burn float64
}

// Validate rejects malformed rules.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("slo: rule needs a name")
	}
	if r.Target <= 0 || r.Target >= 1 {
		return fmt.Errorf("slo: rule %q target %v outside (0,1)", r.Name, r.Target)
	}
	if r.Short <= 0 || r.Long <= 0 || r.Long < r.Short {
		return fmt.Errorf("slo: rule %q windows short=%v long=%v (need 0 < short <= long)",
			r.Name, r.Short, r.Long)
	}
	if r.Burn <= 0 {
		return fmt.Errorf("slo: rule %q burn threshold %v must be positive", r.Name, r.Burn)
	}
	return nil
}

// DefaultRules returns the standard pair sized for interactive simulation
// horizons (seconds, not the SRE book's hours): a fast-burn page and a
// slow-burn ticket.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "fast-burn", Target: 0.999, Short: 2 * sim.Second, Long: 10 * sim.Second, Burn: 14.4},
		{Name: "slow-burn", Target: 0.999, Short: 10 * sim.Second, Long: 60 * sim.Second, Burn: 3},
	}
}

// Source supplies cumulative event counts. Counts must be monotonically
// non-decreasing; the evaluator differences snapshots itself.
type Source interface {
	// Counts returns (bad, total) cumulative event counts.
	Counts() (bad, total float64)
}

// RegistrySource reads bad/total from a machine registry: errors plus
// timeouts over completions, via the alloc-free typed accessors.
type RegistrySource struct{ Reg *registry.Registry }

// Counts implements Source.
func (s RegistrySource) Counts() (bad, total float64) {
	e, _ := s.Reg.Sum("blk_errors_total")
	to, _ := s.Reg.Sum("blk_timeouts_total")
	c, _ := s.Reg.Sum("blk_completions_total")
	return e + to, c
}

// sample is one counter snapshot on the virtual clock.
type sample struct {
	at         sim.Time
	bad, total float64
}

// Alert records one rule state transition.
type Alert struct {
	Rule string `json:"rule"`
	// At is when the transition happened; Active is the new state.
	At     sim.Time `json:"at_ns"`
	Active bool     `json:"active"`
	// ShortBurn/LongBurn are the burn rates at the transition.
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
}

// maxAlertHistory bounds the retained transition log; Transitions keeps
// counting past it.
const maxAlertHistory = 64

// DefaultInterval is the evaluation period when none is configured.
const DefaultInterval = 250 * sim.Millisecond

// Evaluator runs burn-rate rules over a Source on the virtual clock.
type Evaluator struct {
	eng      *sim.Engine
	src      Source
	rules    []Rule
	interval sim.Time

	ring []sample // pre-allocated snapshot ring
	head int      // next write position
	n    int      // live samples

	active []bool
	burns  []float64 // scratch: short/long burn per rule, 2 per rule

	alerts      []Alert
	transitions int
}

// NewEvaluator builds an evaluator; interval 0 selects DefaultInterval.
// The ring is sized to cover the longest rule window.
func NewEvaluator(eng *sim.Engine, src Source, rules []Rule, interval sim.Time) (*Evaluator, error) {
	if src == nil {
		return nil, fmt.Errorf("slo: evaluator needs a source")
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("slo: evaluator needs at least one rule")
	}
	if interval < 0 {
		return nil, fmt.Errorf("slo: negative interval %v", interval)
	}
	if interval == 0 {
		interval = DefaultInterval
	}
	var longest sim.Time
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if r.Long > longest {
			longest = r.Long
		}
	}
	cap := int(longest/interval) + 2
	return &Evaluator{
		eng: eng, src: src, rules: rules, interval: interval,
		ring:   make([]sample, cap),
		active: make([]bool, len(rules)),
		burns:  make([]float64, 2*len(rules)),
	}, nil
}

// Rules returns the rule set.
func (e *Evaluator) Rules() []Rule { return e.rules }

// Interval returns the evaluation period.
func (e *Evaluator) Interval() sim.Time { return e.interval }

// Start begins periodic evaluation on the engine's clock.
func (e *Evaluator) Start() { e.eng.NewTicker(e.interval, func() { e.Check() }) }

// at returns the i-th most recent sample (0 = newest).
func (e *Evaluator) at(i int) *sample {
	idx := e.head - 1 - i
	if idx < 0 {
		idx += len(e.ring)
	}
	return &e.ring[idx]
}

// windowStart finds the snapshot that opened the window [now-w, now]: the
// newest sample at or before now-w, falling back to the oldest retained
// sample while the run is younger than the window.
func (e *Evaluator) windowStart(now, w sim.Time) *sample {
	cut := now - w
	for i := 1; i < e.n; i++ {
		if e.at(i).at <= cut {
			return e.at(i)
		}
	}
	return e.at(e.n - 1)
}

// burn computes the burn rate over window w ending at the newest sample.
func (e *Evaluator) burn(rule *Rule, w sim.Time) float64 {
	if e.n < 2 {
		return 0
	}
	newest := e.at(0)
	start := e.windowStart(newest.at, w)
	total := newest.total - start.total
	if total <= 0 {
		return 0
	}
	badFrac := (newest.bad - start.bad) / total
	return badFrac / (1 - rule.Target)
}

// Check takes one counter snapshot and evaluates every rule. It is the
// ticker body, and also callable directly by hosts that already tick on
// their own schedule (the flight recorder). Returns whether any rule is
// active after the evaluation.
func (e *Evaluator) Check() bool {
	now := e.eng.Now()
	bad, total := e.src.Counts()
	e.ring[e.head] = sample{at: now, bad: bad, total: total}
	e.head = (e.head + 1) % len(e.ring)
	if e.n < len(e.ring) {
		e.n++
	}

	any := false
	for i := range e.rules {
		r := &e.rules[i]
		sb := e.burn(r, r.Short)
		lb := e.burn(r, r.Long)
		e.burns[2*i], e.burns[2*i+1] = sb, lb
		next := sb >= r.Burn && lb >= r.Burn
		if next != e.active[i] {
			e.transitions++
			if len(e.alerts) < maxAlertHistory {
				e.alerts = append(e.alerts, Alert{
					Rule: r.Name, At: now, Active: next, ShortBurn: sb, LongBurn: lb,
				})
			}
			e.active[i] = next
		}
		any = any || e.active[i]
	}
	return any
}

// AnyActive reports whether any rule is currently firing.
func (e *Evaluator) AnyActive() bool {
	for _, a := range e.active {
		if a {
			return true
		}
	}
	return false
}

// Active returns the names of currently firing rules (nil when quiet).
func (e *Evaluator) Active() []string {
	var names []string
	for i, a := range e.active {
		if a {
			names = append(names, e.rules[i].Name)
		}
	}
	return names
}

// Burns returns rule i's current (short, long) burn rates.
func (e *Evaluator) Burns(i int) (short, long float64) {
	return e.burns[2*i], e.burns[2*i+1]
}

// Alerts returns the transition history (bounded; see Transitions for the
// unbounded count).
func (e *Evaluator) Alerts() []Alert { return e.alerts }

// Transitions returns how many rule state changes have happened.
func (e *Evaluator) Transitions() int { return e.transitions }

// Format renders the rule table with current burn rates and alert state.
func (e *Evaluator) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %8s %8s  %s\n",
		"rule", "target", "short", "long", "burn", "s-burn", "l-burn", "state")
	for i := range e.rules {
		r := &e.rules[i]
		state := "ok"
		if e.active[i] {
			state = "FIRING"
		}
		sb, lb := e.Burns(i)
		fmt.Fprintf(&b, "%-12s %8.4g %8s %8s %8.4g %8.3g %8.3g  %s\n",
			r.Name, r.Target, r.Short, r.Long, r.Burn, sb, lb, state)
	}
	if len(e.alerts) > 0 {
		b.WriteString("transitions:\n")
		for _, a := range e.alerts {
			verb := "resolved"
			if a.Active {
				verb = "fired"
			}
			fmt.Fprintf(&b, "  %-12s %s at %s (burn short=%.3g long=%.3g)\n",
				a.Rule, verb, a.At, a.ShortBurn, a.LongBurn)
		}
	}
	return b.String()
}
