package exp

import (
	"reflect"
	"testing"

	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/sim"
)

// TestParallelMatchesSerial is the determinism contract behind
// iocost-bench -parallel: every cell builds its own engine with fixed
// seeds, so fanning cells across goroutines must not change any result.
// Under -race this is also the proof that cells share no state.
func TestParallelMatchesSerial(t *testing.T) {
	opts := Fig10Options{Warmup: 300 * sim.Millisecond, Measure: 700 * sim.Millisecond}

	serial10 := Fig10(opts)
	serial11 := Fig11(opts)
	serialPeriod := AblationPeriod(600 * sim.Millisecond)

	fanout.SetParallel(true)
	defer fanout.SetParallel(false)
	par10 := Fig10(opts)
	par11 := Fig11(opts)
	parPeriod := AblationPeriod(600 * sim.Millisecond)

	if !reflect.DeepEqual(serial10, par10) {
		t.Errorf("Fig10 parallel diverged from serial:\nserial: %+v\nparallel: %+v", serial10, par10)
	}
	if !reflect.DeepEqual(serial11, par11) {
		t.Errorf("Fig11 parallel diverged from serial:\nserial: %+v\nparallel: %+v", serial11, par11)
	}
	if !reflect.DeepEqual(serialPeriod, parPeriod) {
		t.Errorf("AblationPeriod parallel diverged from serial:\nserial: %+v\nparallel: %+v", serialPeriod, parPeriod)
	}
}
