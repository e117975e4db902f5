package blk_test

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/sim"
)

// flakyDev is a device.Device that services every request in a fixed time
// and errors the first `fails` attempts, recording when each attempt
// arrived — the instrument the backoff-schedule test reads.
type flakyDev struct {
	eng      *sim.Engine
	svc      sim.Time
	fails    int
	attempts []sim.Time
	inflight int
}

func (d *flakyDev) Name() string     { return "flaky" }
func (d *flakyDev) Parallelism() int { return 1 }
func (d *flakyDev) InFlight() int    { return d.inflight }

func (d *flakyDev) Submit(b *bio.Bio, done func(*bio.Bio)) {
	d.attempts = append(d.attempts, d.eng.Now())
	n := len(d.attempts)
	d.inflight++
	d.eng.After(d.svc, func() {
		d.inflight--
		if n <= d.fails {
			b.Status = bio.StatusError
		}
		b.Completed = d.eng.Now()
		done(b)
	})
}

func newFlakyQueue(t *testing.T, svc sim.Time, fails int, p blk.RetryPolicy) (*sim.Engine, *flakyDev, *blk.Queue, *cgroup.Node) {
	t.Helper()
	eng := sim.New()
	dev := &flakyDev{eng: eng, svc: svc, fails: fails}
	q := blk.New(eng, dev, ctl.NewNone(), 0)
	q.SetRetryPolicy(p)
	h := cgroup.NewHierarchy()
	return eng, dev, q, h.Root().NewChild("w", 100)
}

// TestRetryBackoffSchedule pins the requeue schedule: a failed attempt is
// retried Backoff<<n after its completion, for n = 0,1,2,...
func TestRetryBackoffSchedule(t *testing.T) {
	const svc = 100 * sim.Microsecond
	policy := blk.RetryPolicy{MaxRetries: 3, Backoff: sim.Millisecond}
	eng, dev, q, cg := newFlakyQueue(t, svc, 3, policy)

	var final *bio.Bio
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { final = b }})
	eng.Run()

	if final == nil {
		t.Fatal("bio never reached OnDone")
	}
	if final.Status != bio.StatusOK || final.Failed() {
		t.Fatalf("bio should succeed on the last retry: status=%v", final.Status)
	}
	if final.Retries != 3 {
		t.Errorf("Retries = %d, want 3", final.Retries)
	}
	// Attempt k fails at attempts[k]+svc and requeues after Backoff<<k:
	// with a 1ms backoff the gaps are exactly 1ms, 2ms, 4ms.
	if len(dev.attempts) != 4 {
		t.Fatalf("device saw %d attempts, want 4", len(dev.attempts))
	}
	for k := 0; k < 3; k++ {
		got := dev.attempts[k+1] - (dev.attempts[k] + svc)
		want := policy.Backoff << uint(k)
		if got != want {
			t.Errorf("retry %d requeued %v after failure, want %v", k+1, got, want)
		}
	}
	if q.Retries() != 3 || q.Errors() != 3 || q.Failures() != 0 {
		t.Errorf("counters: retries=%d errors=%d failures=%d, want 3/3/0",
			q.Retries(), q.Errors(), q.Failures())
	}
	if q.Completions() != 4 {
		t.Errorf("Completions = %d, want 4 (one per attempt)", q.Completions())
	}
}

// TestRetryExhaustionFails pins the give-up path: more consecutive failures
// than MaxRetries delivers the bio to OnDone with its error status intact.
func TestRetryExhaustionFails(t *testing.T) {
	policy := blk.RetryPolicy{MaxRetries: 2, Backoff: sim.Millisecond}
	eng, dev, q, cg := newFlakyQueue(t, 100*sim.Microsecond, 10, policy)

	var final *bio.Bio
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { final = b }})
	eng.Run()

	if final == nil {
		t.Fatal("bio never reached OnDone")
	}
	if !final.Failed() || final.Status != bio.StatusError {
		t.Errorf("exhausted bio should fail: status=%v", final.Status)
	}
	if len(dev.attempts) != 3 {
		t.Errorf("device saw %d attempts, want 3 (1 + MaxRetries)", len(dev.attempts))
	}
	if q.Failures() != 1 {
		t.Errorf("Failures = %d, want 1", q.Failures())
	}
}

// TestZeroPolicyDeliversErrorsUnretried pins the compatibility contract:
// the zero RetryPolicy neither retries nor times out, so fault-free runs
// stay byte-identical to historical ones and errors surface directly.
func TestZeroPolicyDeliversErrorsUnretried(t *testing.T) {
	eng, dev, q, cg := newFlakyQueue(t, 100*sim.Microsecond, 1, blk.RetryPolicy{})

	var final *bio.Bio
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { final = b }})
	eng.Run()

	if final == nil {
		t.Fatal("bio never reached OnDone")
	}
	if !final.Failed() || final.Retries != 0 {
		t.Errorf("zero policy must not retry: status=%v retries=%d", final.Status, final.Retries)
	}
	if len(dev.attempts) != 1 {
		t.Errorf("device saw %d attempts, want 1", len(dev.attempts))
	}
}

// hangDev accepts requests and never completes them.
type hangDev struct{ inflight int }

func (d *hangDev) Name() string                           { return "hang" }
func (d *hangDev) Parallelism() int                       { return 1 }
func (d *hangDev) InFlight() int                          { return d.inflight }
func (d *hangDev) Submit(b *bio.Bio, done func(*bio.Bio)) { d.inflight++ }

// TestDeadlineTimesOutHungDevice pins the timeout path: a dispatched bio
// that outlives the policy deadline completes with StatusTimeout and is
// retried on schedule.
func TestDeadlineTimesOutHungDevice(t *testing.T) {
	eng := sim.New()
	dev := &hangDev{}
	q := blk.New(eng, dev, ctl.NewNone(), 0)
	q.SetRetryPolicy(blk.RetryPolicy{MaxRetries: 1, Backoff: sim.Millisecond, Deadline: 10 * sim.Millisecond})
	cg := cgroup.NewHierarchy().Root().NewChild("w", 100)

	var final *bio.Bio
	var doneAt sim.Time
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { final, doneAt = b, eng.Now() }})
	eng.Run()

	if final == nil {
		t.Fatal("hung bio never timed out")
	}
	if final.Status != bio.StatusTimeout {
		t.Errorf("status = %v, want timeout", final.Status)
	}
	if q.Timeouts() != 2 {
		t.Errorf("Timeouts = %d, want 2 (first attempt + retry)", q.Timeouts())
	}
	// Timeline: timeout at 10ms, requeue at 11ms, second timeout at 21ms.
	if want := 21 * sim.Millisecond; doneAt != want {
		t.Errorf("final delivery at %v, want %v", doneAt, want)
	}
}

// TestLateCompletionAfterTimeout pins the blk_mq_rq_timed_out analogue: a
// device answer arriving after its bio timed out is dropped and counted,
// not delivered twice.
func TestLateCompletionAfterTimeout(t *testing.T) {
	eng, _, q, cg := newFlakyQueue(t, 50*sim.Millisecond, 0, blk.RetryPolicy{
		MaxRetries: 0, Backoff: sim.Millisecond, Deadline: 10 * sim.Millisecond,
	})

	deliveries := 0
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { deliveries++ }})
	eng.Run()

	if deliveries != 1 {
		t.Errorf("bio delivered %d times, want exactly once", deliveries)
	}
	if q.Timeouts() != 1 || q.LateCompletions() != 1 {
		t.Errorf("timeouts=%d late=%d, want 1/1", q.Timeouts(), q.LateCompletions())
	}
}
