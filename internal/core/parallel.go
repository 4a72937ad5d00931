package core

import (
	"context"
	"time"

	"github.com/fedauction/afl/internal/obs"
)

// sweepPar shards the candidate range into one contiguous T̂_g segment
// per worker and runs the segments concurrently, the calling goroutine
// solving the first. workers has already been clamped to [1, tasks]; at
// one worker the single segment spans [T_0, T] and no goroutine starts.
//
// Contiguous segments replace the historical one-T̂_g-at-a-time task
// channel for two reasons. First, ascending T̂_g order inside a segment
// is what lets each worker carry the incremental ψ_max column forward
// (see sweepSegment) instead of rebuilding it per solve. Second, each
// worker writes a contiguous, disjoint half-open range of the shared
// result array and owns all of its mutable scratch outright, so workers
// never interleave writes within a cache line — no false sharing and no
// per-task channel synchronization on the hot path.
//
// Segment boundaries are weighted by the qualification prefix sums: a
// solve at T̂_g costs roughly |J_{T̂_g}| ∝ qualCount[tg] heap and slot
// work, so cutting the cumulative weight into equal parts balances wall
// time far better than cutting the T̂_g count would (qualified sets only
// grow with T̂_g).
//
// On cancellation every segment abandons its remaining candidates at the
// next between-solves check and the partial results are discarded — no
// goroutine outlives the call.
func (ax *auctionContext) sweepPar(ctx context.Context, res *Result, workers int, obsv obs.Observer, now func() time.Time) error {
	lo := ax.t0
	wdps := make([]WDPResult, ax.cfg.T-lo+1)
	bounds := ax.segmentBounds(workers)
	FanOut(len(bounds)-1, func(s int) {
		segLo, segHi := bounds[s], bounds[s+1]-1
		// The only segment error is cancellation, reported once below.
		_ = ax.sweepSegment(ctx, segLo, segHi, wdps[segLo-lo:segHi-lo+1], obsv, now)
	})
	if ctx.Err() != nil {
		return canceledErr(ctx)
	}
	reduceWDPs(res, wdps)
	return nil
}

// segmentBounds cuts [t0, T] into at most workers contiguous segments of
// near-equal cumulative qualification weight, returned as half-open cut
// points: segment s is [bounds[s], bounds[s+1]). Weights are
// qualCount[tg]+1 — the +1 keeps degenerate sweeps (nobody qualified for
// long prefixes) from lumping every T̂_g into one segment.
func (ax *auctionContext) segmentBounds(workers int) []int {
	lo, hi := ax.t0, ax.cfg.T
	var total int64
	for tg := lo; tg <= hi; tg++ {
		total += int64(ax.qualCount[tg]) + 1
	}
	bounds := make([]int, 1, workers+1)
	bounds[0] = lo
	var cum int64
	for tg := lo; tg < hi && len(bounds) < workers; tg++ {
		cum += int64(ax.qualCount[tg]) + 1
		if cum*int64(workers) >= int64(len(bounds))*total {
			bounds = append(bounds, tg+1)
		}
	}
	return append(bounds, hi+1)
}
