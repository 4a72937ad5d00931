package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomBids draws a small population directly (internal/workload cannot
// be imported from an in-package test: it would close an import cycle).
func randomBids(rng *rand.Rand, n, maxClients, maxT int) []Bid {
	bids := make([]Bid, 0, n)
	for i := 0; i < n; i++ {
		start := 1 + rng.Intn(maxT)
		end := start + rng.Intn(maxT-start+1)
		b := Bid{
			Client:   rng.Intn(maxClients),
			Index:    i,
			Price:    1 + 49*rng.Float64(),
			Theta:    0.05 + 0.9*rng.Float64(),
			Start:    start,
			End:      end,
			Rounds:   1 + rng.Intn(end-start+1),
			CompTime: 5 + 5*rng.Float64(),
			CommTime: 10 + 5*rng.Float64(),
		}
		b.TrueCost = b.Price
		bids = append(bids, b)
	}
	return bids
}

// TestContextQualificationMatchesQualified locks the delta-list
// qualification of auctionContext to the reference predicate Qualified:
// for every T̂_g in [1, T] the two must produce the same set, across
// configurations with and without t_max and reserve-price filters.
func TestContextQualificationMatchesQualified(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfgs := []Config{
		{T: 12, K: 2},
		{T: 12, K: 2, TMax: 60},
		{T: 12, K: 2, TMax: 45, ReservePrice: 30},
		{T: 7, K: 1, ReservePrice: 25},
		{T: 20, K: 3, TMax: 80},
	}
	for trial := 0; trial < 50; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		bids := randomBids(rng, 1+rng.Intn(40), 1+rng.Intn(12), cfg.T)
		if err := ValidateBids(bids, cfg.T, cfg.K); err != nil {
			t.Fatalf("trial %d: generator produced invalid bids: %v", trial, err)
		}
		ax := newAuctionContext(CompileBids(bids), cfg)
		for tg := 1; tg <= cfg.T; tg++ {
			want := Qualified(bids, tg, cfg)
			got := append([]int(nil), ax.qualifiedAt(tg)...)
			sort.Ints(got)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d tg=%d: context qualification %v != Qualified %v",
					trial, tg, got, want)
			}
		}
	}
}

// TestContextThetaBoundary pins the exact float behaviour at the
// qualification boundary θ = 1 − 1/T̂_g: the binary-searched entry
// threshold must agree with the linear predicate even at the tolerance
// edge.
func TestContextThetaBoundary(t *testing.T) {
	cfg := Config{T: 10, K: 1}
	var bids []Bid
	for tg := 2; tg <= 10; tg++ {
		theta := 1 - 1/float64(tg) // exactly at the boundary for this tg
		bids = append(bids,
			Bid{Client: len(bids), Price: 1, Theta: theta, Start: 1, End: 1, Rounds: 1},
			Bid{Client: len(bids) + 1, Price: 1, Theta: theta + 1e-9, Start: 1, End: 1, Rounds: 1},
			Bid{Client: len(bids) + 2, Price: 1, Theta: theta - 1e-9, Start: 1, End: 1, Rounds: 1},
		)
	}
	ax := newAuctionContext(CompileBids(bids), cfg)
	for tg := 1; tg <= cfg.T; tg++ {
		want := Qualified(bids, tg, cfg)
		got := append([]int(nil), ax.qualifiedAt(tg)...)
		sort.Ints(got)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tg=%d: boundary qualification %v != Qualified %v", tg, got, want)
		}
	}
}

// TestScratchReuseIsClean interleaves solves of different instances
// through the pool and checks each solve is unaffected by what the arena
// held before — the correctness condition of pooled reuse.
func TestScratchReuseIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type instance struct {
		bids []Bid
		cfg  Config
		want Result
	}
	var instances []instance
	for i := 0; i < 8; i++ {
		cfg := Config{T: 4 + rng.Intn(8), K: 1 + rng.Intn(3)}
		bids := randomBids(rng, 5+rng.Intn(25), 2+rng.Intn(8), cfg.T)
		res, err := Run(context.Background(), bids, cfg, RunOptions{})
		if err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
		instances = append(instances, instance{bids, cfg, res})
	}
	// Re-run every instance several times in shuffled order; pooled
	// arenas now carry state from other instances.
	for round := 0; round < 4; round++ {
		for _, i := range rng.Perm(len(instances)) {
			in := instances[i]
			got, err := Run(context.Background(), in.bids, in.cfg, RunOptions{})
			if err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, in.want) {
				t.Fatalf("round %d instance %d: result changed across pooled reuse", round, i)
			}
		}
	}
}

// TestEngineReuse checks an Engine yields identical results across
// repeated and concurrent invocations of all its methods.
func TestEngineReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{T: 10, K: 2}
	bids := randomBids(rng, 40, 12, cfg.T)
	eng, err := NewEngine(bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, _ := eng.RunCtx(ctx, RunOptions{})
	for i := 0; i < 3; i++ {
		if got, _ := eng.RunCtx(ctx, RunOptions{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("RunCtx %d diverged from the first run", i)
		}
		if got, _ := eng.RunCtx(ctx, RunOptions{Workers: 3}); !reflect.DeepEqual(got, want) {
			t.Fatalf("RunCtx(Workers: 3) %d diverged from the first run", i)
		}
	}
	for tg := 1; tg <= cfg.T; tg++ {
		direct := SolveWDP(bids, Qualified(bids, tg, cfg), tg, cfg)
		viaEngine := eng.SolveWDP(tg)
		if !reflect.DeepEqual(direct, viaEngine) {
			t.Fatalf("tg=%d: Engine.SolveWDP diverged from SolveWDP", tg)
		}
	}
	if got := eng.SolveWDP(0); got.Feasible {
		t.Fatal("tg=0 must be infeasible")
	}
	if got := eng.SolveWDP(cfg.T + 1); got.Feasible {
		t.Fatal("tg>T must be infeasible")
	}
}

// TestSolveWDPTargetOverflow pins the K·T̂_g overflow guard: demand that
// overflows int must be reported infeasible, not (as the seed code did)
// silently satisfied by an empty selection.
func TestSolveWDPTargetOverflow(t *testing.T) {
	bids := []Bid{{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1}}
	const bigTg = int(^uint(0) >> 2) // MaxInt/2: K=4 overflows K·tg
	res := SolveWDP(bids, []int{0}, bigTg, Config{T: bigTg, K: 4})
	if res.Feasible {
		t.Fatal("overflowing K·T̂_g demand must be infeasible")
	}
	if len(res.Winners) != 0 {
		t.Fatalf("infeasible WDP returned winners: %v", res.Winners)
	}
}
