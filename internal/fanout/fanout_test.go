package fanout_test

import (
	"sync/atomic"
	"testing"

	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/rng"
)

// TestForEachNIndexOrder: results land at their cell's index for every
// worker count, including counts far above the cell count.
func TestForEachNIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16, 100} {
		got := fanout.ForEachN(33, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: cell %d produced %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestForEachNWorkerCountInvariance: a deterministic per-cell computation
// (its own derived RNG stream, like fleet shards) yields identical results
// at every worker count.
func TestForEachNWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []uint64 {
		return fanout.ForEachN(64, workers, func(i int) uint64 {
			r := rng.Derive(42, uint64(i))
			var acc uint64
			for k := 0; k < 100; k++ {
				acc ^= r.Uint64()
			}
			return acc
		})
	}
	want := run(1)
	for _, workers := range []int{4, 16} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: cell %d differs from serial run", workers, i)
			}
		}
	}
}

// TestForEachNRunsEveryCellOnce guards the claim counter against skipping
// or double-running cells under contention.
func TestForEachNRunsEveryCellOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int32
	fanout.ForEachN(n, 8, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

func TestForEachRespectsToggle(t *testing.T) {
	fanout.SetParallel(false)
	if fanout.ParallelEnabled() {
		t.Fatal("parallel should be off")
	}
	got := fanout.ForEach(10, func(i int) int { return i })
	for i, v := range got {
		if v != i {
			t.Fatalf("cell %d produced %d", i, v)
		}
	}
}

// TestForEachNMergeOrder: merge sees every value exactly once, in strict
// index order, for every worker count and for windows smaller than,
// equal to, and larger than the cell count.
func TestForEachNMergeOrder(t *testing.T) {
	const n = 200
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, window := range []int{1, 3, 64, n, 5 * n} {
			var got []int
			fanout.ForEachNMerge(n, workers, window,
				func(i int) int { return i * 3 },
				func(i, v int) {
					if v != i*3 {
						t.Fatalf("workers=%d window=%d: merge(%d, %d), want value %d",
							workers, window, i, v, i*3)
					}
					got = append(got, i)
				})
			if len(got) != n {
				t.Fatalf("workers=%d window=%d: merged %d cells, want %d",
					workers, window, len(got), n)
			}
			for i, idx := range got {
				if idx != i {
					t.Fatalf("workers=%d window=%d: merge call %d got index %d",
						workers, window, i, idx)
				}
			}
		}
	}
}

// TestForEachNMergeWindowBound: a worker can never claim a cell more than
// `window` ahead of the merge frontier, so retained unmerged results stay
// bounded no matter how lopsided cell runtimes are.
func TestForEachNMergeWindowBound(t *testing.T) {
	const n, window = 120, 8
	var merged atomic.Int32
	var maxLead atomic.Int32
	fanout.ForEachNMerge(n, 6, window,
		func(i int) int {
			if lead := int32(i) - merged.Load(); lead > maxLead.Load() {
				maxLead.Store(lead)
			}
			return i
		},
		func(i, v int) { merged.Add(1) })
	// The frontier can advance between the claim and the load, so the
	// observed lead only ever underestimates; the bound itself is exact.
	if lead := maxLead.Load(); lead > window {
		t.Fatalf("cell claimed %d ahead of merge frontier, window is %d", lead, window)
	}
}

func TestForEachIndexOrder(t *testing.T) {
	fanout.SetParallel(true)
	defer fanout.SetParallel(false)
	out := fanout.ForEach(257, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachRunsEveryCellOnce(t *testing.T) {
	fanout.SetParallel(true)
	defer fanout.SetParallel(false)
	var calls [64]atomic.Int32
	fanout.ForEach(len(calls), func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times, want 1", i, n)
		}
	}
}

func TestForEachSerialWhenDisabled(t *testing.T) {
	if fanout.ParallelEnabled() {
		t.Fatal("parallel fan-out should be off by default")
	}
	// With fan-out off, cells run in order on the calling goroutine, so an
	// unsynchronized counter is safe and must count up monotonically.
	next := 0
	fanout.ForEach(16, func(i int) struct{} {
		if i != next {
			t.Fatalf("serial ForEach ran cell %d before cell %d", i, next)
		}
		next++
		return struct{}{}
	})
}
