package tune

import (
	"fmt"
	"math"
	"sort"

	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
)

// The search engine: successive halving over a seeded candidate population,
// then hill climbing around the survivor, then a confirmation race of the
// winner against the default and hand-tuned configs at the final window.
// Every stage evaluates candidates as independent forked branches through
// fanout.ForEachN, and every random draw comes from an rng.Derive stream of
// the seed, so the result is a pure function of (scenario, objective,
// options) regardless of worker count.

// Seed-stream tags for the search itself (branch-internal tags live in
// eval.go).
const (
	candSeedTag = 0xca4d
	hillSeedTag = 0x91110000
)

// Options parameterizes a Search.
type Options struct {
	Seed uint64
	// Objective names a built-in objective; "" selects bulk-slo.
	Objective string
	// Target overrides the scenario's protected p99 target; 0 keeps it.
	Target sim.Time
	// Candidates is the initial population size; 0 selects 12, minimum 2.
	// Slot 0 is always the kernel default QoS and slot 1 the hand-tuned
	// config, so the search baseline is in the race from round one.
	Candidates int
	// Rounds caps the number of halving rounds; 0 races until two
	// candidates remain.
	Rounds int
	// Window is the first round's measurement window; 0 selects 400ms. It
	// doubles each round (successive halving spends its budget on
	// survivors) and is capped at 8x.
	Window sim.Time
	// Warmup runs before each measurement window; 0 selects 200ms.
	Warmup sim.Time
	// HillRounds is the number of hill-climbing rounds after halving;
	// 0 selects 2, negative disables.
	HillRounds int
	// HillNeighbors is the perturbations tried per hill round; 0 selects 4.
	HillNeighbors int
	// Workers is the fanout width; 0 selects serial. Results are
	// byte-identical at any width.
	Workers int
	// Progress, when non-nil, receives rate-limitable progress lines
	// (key, format, args) as the search runs.
	Progress func(key, format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Candidates == 0 {
		o.Candidates = 12
	}
	if o.Candidates < 2 {
		o.Candidates = 2
	}
	if o.Window == 0 {
		o.Window = 400 * sim.Millisecond
	}
	if o.Warmup == 0 {
		o.Warmup = 200 * sim.Millisecond
	}
	if o.HillRounds == 0 {
		o.HillRounds = 2
	}
	if o.HillNeighbors == 0 {
		o.HillNeighbors = 4
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Progress == nil {
		o.Progress = func(string, string, ...any) {}
	}
	return o
}

// Validate rejects nonsensical options (after defaulting).
func (o Options) Validate() error {
	if o.Window < 0 || o.Warmup < 0 {
		return fmt.Errorf("tune: Window and Warmup must be non-negative")
	}
	if o.Candidates < 0 || o.Rounds < 0 || o.HillNeighbors < 0 || o.Workers < 0 {
		return fmt.Errorf("tune: counts must be non-negative")
	}
	if _, err := ObjectiveByName(o.Objective); err != nil {
		return err
	}
	return nil
}

// Candidate is one configuration in the race, with its most recent score.
type Candidate struct {
	QoS    core.QoS
	Origin string // "default", "hand", "random-N", "hill-R.N"
	Score  float64
	Meas   Measure
}

// Round summarizes one evaluation round.
type Round struct {
	Stage      string // "halving", "hill", "final"
	Window     sim.Time
	Candidates int
	BestScore  float64
	BestOrigin string
}

// Result is a completed search.
type Result struct {
	Scenario  string
	Objective string
	Target    sim.Time
	Seed      uint64
	Model     core.LinearParams

	// Best is the recommended config; Baseline and HandTuned are the
	// kernel default and §3.4 hand-tuned configs, all scored at the final
	// window so the comparison is apples-to-apples.
	Best      Candidate
	Baseline  Candidate
	HandTuned Candidate

	Rounds      []Round
	Evals       int
	FinalWindow sim.Time
}

// Search races candidate QoS configs for the scenario and returns the best
// found, with the default and hand-tuned configs scored alongside it.
func Search(sc Scenario, opts Options) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	obj, err := ObjectiveByName(opts.Objective)
	if err != nil {
		return nil, err
	}
	target := opts.Target
	if target == 0 {
		target = sc.Target
	}

	model, hand := sc.Device.IOCostDefaults()
	res := &Result{
		Scenario: sc.Name, Objective: obj.Name, Target: target,
		Seed: opts.Seed, Model: model,
	}

	// Round 0 population: the two reference configs plus seeded random
	// candidates spanning the knob space on log scales.
	pop := make([]Candidate, 0, opts.Candidates)
	pop = append(pop,
		Candidate{QoS: core.DefaultQoS(), Origin: "default"},
		Candidate{QoS: hand, Origin: "hand"})
	gen := rng.Derive(opts.Seed, candSeedTag)
	hintR, hintW := sc.latencyHints()
	for i := len(pop); i < opts.Candidates; i++ {
		pop = append(pop, Candidate{QoS: randomQoS(gen, hintR, hintW), Origin: fmt.Sprintf("random-%d", i)})
	}

	score := func(cands []Candidate, window sim.Time) {
		ms := fanout.ForEachN(len(cands), opts.Workers, func(i int) Measure {
			return evaluate(sc, cands[i].QoS, opts.Seed, opts.Warmup, window)
		})
		for i := range cands {
			cands[i].Meas = ms[i]
			cands[i].Score = obj.Score(target, ms[i])
		}
		res.Evals += len(cands)
	}
	record := func(stage string, window sim.Time, cands []Candidate) {
		res.Rounds = append(res.Rounds, Round{
			Stage: stage, Window: window, Candidates: len(cands),
			BestScore: cands[0].Score, BestOrigin: cands[0].Origin,
		})
	}

	// Successive halving: score everyone, keep the top half, double the
	// window. Ties keep the earlier candidate (stable sort), so ranking
	// never depends on evaluation order.
	window := opts.Window
	maxWindow := 8 * opts.Window
	for round := 1; ; round++ {
		score(pop, window)
		sort.SliceStable(pop, func(i, j int) bool { return pop[i].Score > pop[j].Score })
		record("halving", window, pop)
		opts.Progress("round", "halving %d: %d candidates @ %v, best %s score %.3f",
			round, len(pop), window, pop[0].Origin, pop[0].Score)
		done := len(pop) <= 2 || (opts.Rounds > 0 && round >= opts.Rounds)
		if window < maxWindow {
			window *= 2
		}
		if done {
			break
		}
		pop = pop[:(len(pop)+1)/2]
	}

	// Hill climbing around the survivor at the final window.
	incumbent := pop[0]
	for h := 0; h < opts.HillRounds; h++ {
		set := make([]Candidate, 0, 1+opts.HillNeighbors)
		set = append(set, Candidate{QoS: incumbent.QoS, Origin: incumbent.Origin})
		for j := 0; j < opts.HillNeighbors; j++ {
			src := rng.Derive(opts.Seed, hillSeedTag+uint64(h)*64+uint64(j))
			set = append(set, Candidate{
				QoS:    perturb(incumbent.QoS, src),
				Origin: fmt.Sprintf("hill-%d.%d", h+1, j+1),
			})
		}
		score(set, window)
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].Score > set[best].Score {
				best = i
			}
		}
		incumbent = set[best]
		sort.SliceStable(set, func(i, j int) bool { return set[i].Score > set[j].Score })
		record("hill", window, set)
		opts.Progress("hill", "hill %d: best %s score %.3f", h+1, incumbent.Origin, incumbent.Score)
	}

	// Confirmation race: winner vs the reference configs, one window, so
	// every reported score is comparable. Ties go to the earlier entry —
	// the tuned config only wins by strictly beating the references.
	finalists := []Candidate{
		{QoS: incumbent.QoS, Origin: incumbent.Origin},
		{QoS: core.DefaultQoS(), Origin: "default"},
		{QoS: hand, Origin: "hand"},
	}
	score(finalists, window)
	best := 0
	for i := 1; i < len(finalists); i++ {
		if finalists[i].Score > finalists[best].Score {
			best = i
		}
	}
	res.Best = finalists[best]
	res.Baseline = finalists[1]
	res.HandTuned = finalists[2]
	res.FinalWindow = window
	ranked := append([]Candidate(nil), finalists...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Score > ranked[j].Score })
	record("final", window, ranked)
	opts.Progress("final", "final: %s score %.3f (default %.3f, hand %.3f)",
		res.Best.Origin, res.Best.Score, res.Baseline.Score, res.HandTuned.Score)
	return res, nil
}

// Candidate-space helpers. Percentile knobs move on a fixed grid (matching
// how operators set them); latency and vrate knobs move on log scales.

var pctGrid = []float64{50, 75, 90, 95}

const (
	minLat = 50 * sim.Microsecond
	maxLat = 2 * sim.Second
)

func clampLat(t sim.Time) sim.Time {
	if t < minLat {
		return minLat
	}
	if t > maxLat {
		return maxLat
	}
	return t
}

func logLerp(lo, hi, u float64) float64 {
	return math.Exp(math.Log(lo) + (math.Log(hi)-math.Log(lo))*u)
}

// randomQoS draws one candidate: vrate band log-uniform in [0.3, 4],
// latency targets log-uniform multiples [2, 32] of the device's loaded
// service-time hints.
func randomQoS(gen *rng.Source, hintR, hintW sim.Time) core.QoS {
	vmax := logLerp(0.3, 4.0, gen.Float64())
	vmin := vmax * (0.1 + 0.7*gen.Float64())
	if vmin < 0.05 {
		vmin = 0.05
	}
	rl := clampLat(sim.Time(float64(hintR) * logLerp(2, 32, gen.Float64())))
	wl := clampLat(sim.Time(float64(hintW) * logLerp(2, 32, gen.Float64())))
	return core.QoS{
		RPct: pctGrid[gen.Intn(len(pctGrid))], RLat: rl,
		WPct: pctGrid[gen.Intn(len(pctGrid))], WLat: wl,
		VrateMin: vmin, VrateMax: vmax,
	}
}

func pctStep(p float64, up bool) float64 {
	idx := 0
	for i, g := range pctGrid {
		if math.Abs(g-p) < math.Abs(pctGrid[idx]-p) {
			idx = i
		}
	}
	if up && idx < len(pctGrid)-1 {
		idx++
	} else if !up && idx > 0 {
		idx--
	}
	return pctGrid[idx]
}

// perturb moves one knob of q by a small multiplicative step (or one grid
// step for percentiles), keeping the config valid.
func perturb(q core.QoS, src *rng.Source) core.QoS {
	knob := src.Intn(6)
	up := src.Float64() < 0.5
	f := 0.8
	if up {
		f = 1.25
	}
	switch knob {
	case 0:
		q.VrateMax *= f
		if q.VrateMax > 8 {
			q.VrateMax = 8
		}
		if q.VrateMax < 0.05 {
			q.VrateMax = 0.05
		}
		if q.VrateMin > q.VrateMax {
			q.VrateMin = q.VrateMax
		}
	case 1:
		q.VrateMin *= f
		if q.VrateMin < 0.05 {
			q.VrateMin = 0.05
		}
		if q.VrateMin > q.VrateMax {
			q.VrateMin = q.VrateMax
		}
	case 2:
		q.RLat = clampLat(sim.Time(float64(q.RLat) * f))
	case 3:
		q.WLat = clampLat(sim.Time(float64(q.WLat) * f))
	case 4:
		q.RPct = pctStep(q.RPct, up)
	case 5:
		q.WPct = pctStep(q.WPct, up)
	}
	return q
}
