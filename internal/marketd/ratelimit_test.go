package marketd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source: the limiter's arithmetic is
// pure in the injected now, so these tables never sleep.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestTokenBucketTable drives one client through a scripted sequence of
// admissions and virtual-time advances.
func TestTokenBucketTable(t *testing.T) {
	type step struct {
		advance   time.Duration
		wantOK    bool
		wantRetry time.Duration // 0 = don't care (admitted)
	}
	cases := []struct {
		name  string
		rate  float64
		burst int
		steps []step
	}{
		{
			name: "burst_then_starve", rate: 1, burst: 3,
			steps: []step{
				{0, true, 0}, {0, true, 0}, {0, true, 0},
				// Bucket empty: a full token is one second away.
				{0, false, time.Second},
				// Half a token accrued: half a second to go.
				{500 * time.Millisecond, false, 500 * time.Millisecond},
				{500 * time.Millisecond, true, 0},
				{0, false, time.Second},
			},
		},
		{
			name: "refill_caps_at_burst", rate: 10, burst: 2,
			steps: []step{
				{0, true, 0}, {0, true, 0},
				// An hour idle refills to burst, not to rate*3600.
				{time.Hour, true, 0}, {0, true, 0},
				{0, false, 100 * time.Millisecond},
			},
		},
		{
			name: "fractional_rate", rate: 0.5, burst: 1,
			steps: []step{
				{0, true, 0},
				{0, false, 2 * time.Second},
				{time.Second, false, time.Second},
				{time.Second, true, 0},
			},
		},
		{
			name: "default_burst_is_ceil_rate", rate: 2.5, burst: 0,
			steps: []step{
				{0, true, 0}, {0, true, 0}, {0, true, 0},
				{0, false, 400 * time.Millisecond},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			tb := newTokenBucket(tc.rate, tc.burst, clk.now)
			for i, s := range tc.steps {
				clk.advance(s.advance)
				ok, retry := tb.allow("client-a")
				if ok != s.wantOK {
					t.Fatalf("step %d: allow = %v, want %v", i, ok, s.wantOK)
				}
				if !ok && retry != s.wantRetry {
					t.Fatalf("step %d: retry = %v, want %v", i, retry, s.wantRetry)
				}
			}
		})
	}
}

// TestTokenBucketPerClientIsolation pins that one client draining its
// bucket cannot starve another: buckets are keyed, not shared.
func TestTokenBucketPerClientIsolation(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tb := newTokenBucket(1, 2, clk.now)
	for i := 0; i < 2; i++ {
		if ok, _ := tb.allow("greedy"); !ok {
			t.Fatalf("greedy admission %d rejected within burst", i)
		}
	}
	if ok, _ := tb.allow("greedy"); ok {
		t.Fatal("greedy admitted past its burst")
	}
	for i := 0; i < 2; i++ {
		if ok, _ := tb.allow("quiet"); !ok {
			t.Fatalf("quiet client starved by greedy's exhaustion (admission %d)", i)
		}
	}
}

// TestTokenBucketRetryAfterIsSufficient pins the advisory contract: a
// client that waits exactly the returned duration is admitted.
func TestTokenBucketRetryAfterIsSufficient(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tb := newTokenBucket(3, 1, clk.now)
	if ok, _ := tb.allow("c"); !ok {
		t.Fatal("first admission rejected")
	}
	for i := 0; i < 5; i++ {
		ok, retry := tb.allow("c")
		if ok {
			t.Fatalf("round %d: admitted with an empty bucket", i)
		}
		clk.advance(retry)
		if ok, _ := tb.allow("c"); !ok {
			t.Fatalf("round %d: rejected after waiting the advised %v", i, retry)
		}
	}
}

// refLimiter is the token bucket without eviction: one bucket per key
// ever seen, refilled exactly as tokenBucket.allow refills.
type refLimiter struct {
	rate, burst float64
	buckets     map[string]*bucket
}

func (r *refLimiter) allow(key string, now time.Time) (bool, time.Duration) {
	b, ok := r.buckets[key]
	if !ok {
		b = &bucket{tokens: r.burst, last: now}
		r.buckets[key] = b
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(r.burst, b.tokens+dt*r.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration(math.Ceil((1 - b.tokens) / r.rate * float64(time.Second)))
}

// TestTokenBucketEvictionKeepsVerdicts replays random multi-key traces
// through the evicting limiter and a reference that never evicts: every
// verdict and Retry-After must match. The traces mix a few hot keys with
// many one-off ones, repeated instants, advances of whole refill periods
// (so buckets land exactly on burst) and phases of sparse and dense
// traffic, and must sweep the map several times.
func TestTokenBucketEvictionKeepsVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, tc := range []struct {
		rate  float64
		burst int
	}{{1, 1}, {1, 3}, {2.5, 0}, {0.5, 2}, {3, 4}, {1000, 5}} {
		clk := &fakeClock{t: time.Unix(1000, 0)}
		tb := newTokenBucket(tc.rate, tc.burst, clk.now)
		ref := &refLimiter{rate: tc.rate, burst: tb.burst, buckets: map[string]*bucket{}}
		period := time.Duration(float64(time.Second) / tc.rate)
		sweeps := 0
		var scale time.Duration
		for i := 0; i < 40000; i++ {
			if i%1000 == 0 {
				scale = period / time.Duration(1+rng.Intn(20))
			}
			switch rng.Intn(6) {
			case 0: // same instant
			case 1:
				clk.advance(time.Duration(rng.Intn(3)) * period)
			case 2:
				clk.advance(time.Duration(tb.burst) * period)
			default:
				clk.advance(time.Duration(rng.Int63n(int64(scale))))
			}
			key := fmt.Sprintf("k%d", rng.Intn(4))
			if rng.Intn(3) == 0 {
				key = fmt.Sprintf("10.0.0.1:%d", rng.Intn(500))
			}
			n := len(tb.buckets)
			ok, wait := tb.allow(key)
			wantOK, wantWait := ref.allow(key, clk.t)
			if ok != wantOK || wait != wantWait {
				t.Fatalf("rate %v burst %d step %d key %s: allow = %v, %v; without eviction %v, %v",
					tc.rate, tc.burst, i, key, ok, wait, wantOK, wantWait)
			}
			if len(tb.buckets) < n {
				sweeps++
			}
		}
		if sweeps < 3 {
			t.Fatalf("rate %v burst %d: trace swept the map %d times, want at least 3", tc.rate, tc.burst, sweeps)
		}
	}
}

// TestTokenBucketMapStaysBounded submits once from each of 10⁴ keys, as
// anonymous clients reconnecting from fresh ports do, each after the
// previous key's bucket has refilled: the map must not keep them all.
func TestTokenBucketMapStaysBounded(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tb := newTokenBucket(2, 3, clk.now)
	gap := time.Duration(tb.burst/tb.rate*float64(time.Second)) + time.Millisecond
	most := 0
	for i := 0; i < 10000; i++ {
		clk.advance(gap)
		if ok, _ := tb.allow(fmt.Sprintf("10.0.0.1:%d", i)); !ok {
			t.Fatalf("key %d: first submission rejected", i)
		}
		most = max(most, len(tb.buckets))
	}
	if most > minSweepAt {
		t.Fatalf("limiter held %d buckets for one-shot keys, want at most %d", most, minSweepAt)
	}
}
