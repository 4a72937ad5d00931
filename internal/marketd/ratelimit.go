package marketd

import (
	"math"
	"sync"
	"time"
)

// tokenBucket is a per-client token-bucket rate limiter. Each client key
// owns an independent bucket of capacity burst that refills at rate
// tokens per second; an admission spends one token. Time comes from an
// injected clock, so the refill arithmetic is pure — tests drive it with
// a virtual clock and never sleep.
//
// Buckets are tracked lazily as float64 token counts with a last-refill
// timestamp; a client that stays idle for burst/rate seconds is
// indistinguishable from a new one. The map is keyed by client name or,
// for anonymous submissions, by remote host, so it would grow with every
// new name and every new host: whenever it has doubled since
// the last sweep, buckets that are full at the current time are dropped.
// Under a non-decreasing clock a dropped key that returns gets the same
// full bucket it would have refilled to, so no verdict or wait changes.
type tokenBucket struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt int // map size that triggers the next sweep of full buckets
}

// minSweepAt is the smallest map size that triggers a sweep, so a small
// client population is never swept.
const minSweepAt = 64

type bucket struct {
	tokens float64
	last   time.Time
}

// newTokenBucket builds a limiter. rate must be positive; burst <= 0
// selects max(1, ceil(rate)) so a fresh client can always submit at
// least once.
func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	b := float64(burst)
	if burst <= 0 {
		b = math.Max(1, math.Ceil(rate))
	}
	return &tokenBucket{
		rate:    rate,
		burst:   b,
		now:     now,
		buckets: make(map[string]*bucket),
		sweepAt: minSweepAt,
	}
}

// allow spends one token from client's bucket. When the bucket is empty
// it reports false and the duration until one full token will have
// accrued — the Retry-After the HTTP edge advertises.
func (t *tokenBucket) allow(client string) (bool, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now() // read under the lock, so updates see a non-decreasing clock
	b, ok := t.buckets[client]
	if !ok {
		if len(t.buckets) >= t.sweepAt {
			t.sweep(now)
		}
		b = &bucket{tokens: t.burst, last: now}
		t.buckets[client] = b
	} else if now.Sub(b.last) > 0 {
		b.tokens, b.last = t.level(b, now), now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	wait := time.Duration(math.Ceil(deficit / t.rate * float64(time.Second)))
	return false, wait
}

// level returns b's token count at now: refilled at rate since b.last,
// capped at burst.
func (t *tokenBucket) level(b *bucket, now time.Time) float64 {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		return math.Min(t.burst, b.tokens+dt*t.rate)
	}
	return b.tokens
}

// sweep drops every bucket whose level at now is burst and sets the next
// sweep at twice the surviving size, so its cost is amortized over the
// inserts in between. Callers hold t.mu.
func (t *tokenBucket) sweep(now time.Time) {
	for k, b := range t.buckets {
		if t.level(b, now) >= t.burst {
			delete(t.buckets, k)
		}
	}
	t.sweepAt = max(minSweepAt, 2*len(t.buckets))
}
