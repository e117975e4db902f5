package slo

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/sim"
)

// TestHysteresisSemantics pins the shared trigger state machine the daemon
// and the flight recorder both ride on: consecutive-breach arming, streak
// reset on healthy samples, cooldown without streak reset, and the MaxFires
// lifetime bound.
func TestHysteresisSemantics(t *testing.T) {
	h := Hysteresis{Consec: 2, Cooldown: 10 * sim.Second, MaxFires: 2}

	// One breach is noise: not armed.
	if h.Observe(0, true) {
		t.Fatal("armed after a single breach with Consec=2")
	}
	// A healthy sample resets the streak.
	if h.Observe(sim.Second, false) {
		t.Fatal("armed on a healthy sample")
	}
	if h.Observe(2*sim.Second, true) {
		t.Fatal("armed after reset + one breach")
	}
	// Second consecutive breach arms.
	if !h.Observe(3*sim.Second, true) {
		t.Fatal("not armed after Consec consecutive breaches")
	}
	h.Fire(3 * sim.Second)
	if h.Fires() != 1 || h.Breaches() != 0 {
		t.Fatalf("after fire: fires=%d breaches=%d, want 1/0", h.Fires(), h.Breaches())
	}

	// Breaches inside the cooldown arm nothing but KEEP the streak.
	if h.Observe(4*sim.Second, true) || h.Observe(5*sim.Second, true) {
		t.Fatal("armed inside cooldown")
	}
	if h.Breaches() != 2 {
		t.Fatalf("cooldown reset the streak: breaches=%d, want 2", h.Breaches())
	}
	// The moment the cooldown expires, the standing streak fires without
	// re-counting from zero.
	if !h.Observe(13*sim.Second+1, true) {
		t.Fatal("not armed after cooldown expiry with standing streak")
	}
	h.Fire(13*sim.Second + 1)

	// MaxFires=2 exhausted: a fully armed trigger stays quiet.
	if h.Observe(30*sim.Second, true) {
		t.Fatal("armed once")
	}
	if h.Observe(31*sim.Second, true) {
		t.Fatal("armed beyond MaxFires")
	}
	if h.Fires() != 2 {
		t.Fatalf("fires=%d, want 2", h.Fires())
	}
}

// TestHysteresisDeclinedFire pins that an armed trigger whose action is
// declined (no Fire call) keeps its streak and re-arms on the next breach.
func TestHysteresisDeclinedFire(t *testing.T) {
	h := Hysteresis{Consec: 2}
	h.Observe(0, true)
	if !h.Observe(1, true) {
		t.Fatal("not armed")
	}
	// Caller declined; next breach must arm again immediately.
	if !h.Observe(2, true) {
		t.Fatal("streak lost after declined fire")
	}
}

// TestHysteresisZeroValues pins that the zero value behaves as
// fire-on-every-breach (Consec<1 is 1, no cooldown, unlimited).
func TestHysteresisZeroValues(t *testing.T) {
	var h Hysteresis
	for i := 0; i < 3; i++ {
		if !h.Observe(sim.Time(i), true) {
			t.Fatalf("breach %d not armed under zero-value hysteresis", i)
		}
		h.Fire(sim.Time(i))
	}
	if h.Fires() != 3 {
		t.Fatalf("fires=%d, want 3", h.Fires())
	}
}
