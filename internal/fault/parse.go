package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/iocost-sim/iocost/internal/sim"
)

// Presets are named plans for the failure shapes the paper discusses, usable
// anywhere a plan spec is accepted (iocost-sim -faults storm). Durations are
// sized for the default 10-second interactive runs.
//
//	flaky       2% transient errors for 6s
//	storm       10x latency plus 1% errors for 4s (the aging-SSD storm)
//	hang        a 500ms device hang, twice
//	gcstorm     firmware GC stealing the device for 5-50ms slices
//	capcollapse a cloud volume collapsing to 500 IOPS for 4s
func Presets() map[string]Plan {
	return map[string]Plan{
		"flaky": {Episodes: []Episode{
			{Kind: Error, At: 2 * sim.Second, Dur: 6 * sim.Second, Rate: 0.02},
		}},
		"storm": {Episodes: []Episode{
			{Kind: Slow, At: 3 * sim.Second, Dur: 4 * sim.Second, Factor: 10},
			{Kind: Error, At: 3 * sim.Second, Dur: 4 * sim.Second, Rate: 0.01},
		}},
		"hang": {Episodes: []Episode{
			{Kind: Stall, At: 2 * sim.Second, Dur: 500 * sim.Millisecond},
			{Kind: Stall, At: 6 * sim.Second, Dur: 500 * sim.Millisecond},
		}},
		"gcstorm": {Episodes: []Episode{
			{Kind: GCStorm, At: 2 * sim.Second, Dur: 6 * sim.Second, Rate: 0.05, Stall: 5 * sim.Millisecond},
		}},
		"capcollapse": {Episodes: []Episode{
			{Kind: IOPSCap, At: 3 * sim.Second, Dur: 4 * sim.Second, Rate: 500},
		}},
	}
}

// PresetNames returns the preset names in stable order for flag help.
func PresetNames() []string {
	return []string{"flaky", "storm", "hang", "gcstorm", "capcollapse"}
}

// ParsePlan parses a plan spec: either a preset name (see Presets) or a
// semicolon-separated episode list, each episode
//
//	kind:at=DUR,dur=DUR[,rate=F][,factor=F][,stall=DUR]
//
// with durations in Go syntax (500ms, 2s). Example:
//
//	slow:at=2s,dur=3s,factor=10;error:at=2s,dur=3s,rate=0.01
func ParsePlan(spec string) (Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Plan{}, fmt.Errorf("fault: empty plan spec")
	}
	if p, ok := Presets()[spec]; ok {
		return p, nil
	}
	var p Plan
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ep, err := parseEpisode(part)
		if err != nil {
			return Plan{}, err
		}
		p.Episodes = append(p.Episodes, ep)
	}
	if p.Empty() {
		return Plan{}, fmt.Errorf("fault: plan spec %q has no episodes", spec)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func parseEpisode(s string) (Episode, error) {
	name, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Episode{}, fmt.Errorf("fault: episode %q: want kind:key=val,... or a preset name (%s)",
			s, strings.Join(PresetNames(), ", "))
	}
	kind, err := KindFromName(strings.TrimSpace(name))
	if err != nil {
		return Episode{}, err
	}
	ep := Episode{Kind: kind}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Episode{}, fmt.Errorf("fault: episode %q: bad field %q", s, kv)
		}
		switch key {
		case "at":
			ep.At, err = parseDur(val)
		case "dur":
			ep.Dur, err = parseDur(val)
		case "stall":
			ep.Stall, err = parseDur(val)
		case "rate":
			ep.Rate, err = strconv.ParseFloat(val, 64)
		case "factor":
			ep.Factor, err = strconv.ParseFloat(val, 64)
		default:
			return Episode{}, fmt.Errorf("fault: episode %q: unknown field %q", s, key)
		}
		if err != nil {
			return Episode{}, fmt.Errorf("fault: episode %q: field %q: %v", s, key, err)
		}
	}
	return ep, nil
}

func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Time(d.Nanoseconds()), nil
}
