package workload

import "github.com/iocost-sim/iocost/internal/rng"

// FleetHostMix draws the workload mix a full-fidelity fleet host runs: a
// latency-sensitive protected service (one of the moderate Figure 4
// profiles) and the best-effort bulk template whose rates the host scales
// to its per-tick pressure draw (the bulk job is what generates the
// pressure the outcome model's curves are parameterized by). Consumes
// exactly one draw from r, so callers can keep their stream layouts fixed.
func FleetHostMix(r *rng.Source) (protected, bulk DemandProfile) {
	profs := MetaProfiles()
	protected = profs[r.Intn(3)] // web-a, web-b or serverless
	bulk = DemandProfile{
		Name: "bulk",
		// The same shape as the Figs 18/19 micro-sims' pressure workload:
		// mostly-random reads plus buffered writes at 16KiB.
		ReadRandFrac:  0.8,
		WriteRandFrac: 0.3,
		IOSize:        16 << 10,
	}
	return protected, bulk
}
