package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/fedauction/afl/internal/stats"
)

// TestRunAuctionConcurrentMatchesSequential holds the sharded sweep to
// the one-worker sweep: every width must return the same argmin, winners,
// payments and per-T̂_g trace.
func TestRunAuctionConcurrentMatchesSequential(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(515)
	cfg := Config{T: 12, K: 2, TMax: 60}
	for trial := 0; trial < 25; trial++ {
		bids := randomAuctionBids(rng, cfg.T, 14)
		seq, err := Run(ctx, bids, cfg, RunOptions{})
		if err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, -1} {
			par, err := Run(ctx, bids, cfg, RunOptions{Workers: workers})
			if err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatal(err)
			}
			if par.Feasible != seq.Feasible {
				t.Fatalf("trial %d workers=%d: feasible %v vs %v", trial, workers, par.Feasible, seq.Feasible)
			}
			if !seq.Feasible {
				continue
			}
			if par.Tg != seq.Tg || math.Abs(par.Cost-seq.Cost) > 1e-12 {
				t.Fatalf("trial %d workers=%d: (T_g, cost) = (%d, %v) vs (%d, %v)",
					trial, workers, par.Tg, par.Cost, seq.Tg, seq.Cost)
			}
			if len(par.Winners) != len(seq.Winners) {
				t.Fatalf("trial %d workers=%d: %d winners vs %d", trial, workers, len(par.Winners), len(seq.Winners))
			}
			for i := range seq.Winners {
				if par.Winners[i].BidIndex != seq.Winners[i].BidIndex ||
					par.Winners[i].Payment != seq.Winners[i].Payment {
					t.Fatalf("trial %d workers=%d: winner %d differs", trial, workers, i)
				}
			}
			if len(par.WDPs) != len(seq.WDPs) {
				t.Fatalf("trial %d workers=%d: WDP trace length %d vs %d",
					trial, workers, len(par.WDPs), len(seq.WDPs))
			}
		}
	}
}
