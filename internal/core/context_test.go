package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
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
// held before — the correctness condition of pooled reuse. Every entry
// point that runs A_winner takes part, so the arenas' candidate stamps
// and class heads pass between sweeps, standalone solves, repairs and
// pricing runs.
func TestScratchReuseIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type instance struct {
		bids []Bid
		cfg  Config // RuleCritical
		tg   int    // the standalone solves' horizon
		want reuseOutputs
	}
	var instances []instance
	repairs := 0
	for i := 0; i < 8; i++ {
		cfg := Config{T: 4 + rng.Intn(8), K: 1 + rng.Intn(2), ExcludeOwnBids: i%2 == 0}
		n := 20 + rng.Intn(40)
		in := instance{
			bids: randomBids(rng, n, n/2+rng.Intn(n/2), cfg.T),
			cfg:  cfg,
			tg:   1 + rng.Intn(cfg.T),
		}
		in.want = solveEveryEntryPoint(t, in.bids, in.cfg, in.tg)
		if len(in.want.repair.Winners) > 0 {
			repairs++
		}
		instances = append(instances, in)
	}
	if repairs == 0 {
		t.Fatal("no instance promoted a repair winner; the fixture needs feasible multi-winner instances")
	}
	// Re-run every instance several times in shuffled order; pooled
	// arenas now carry state from other instances.
	for round := 0; round < 4; round++ {
		for _, i := range rng.Perm(len(instances)) {
			in := instances[i]
			if got := solveEveryEntryPoint(t, in.bids, in.cfg, in.tg); !reflect.DeepEqual(got, in.want) {
				t.Fatalf("round %d instance %d: result changed across pooled reuse", round, i)
			}
		}
	}
}

// reuseOutputs holds one instance's result from every entry point that
// runs A_winner (see solveEveryEntryPoint).
type reuseOutputs struct {
	critical, exact Result
	set, engine     WDPResult
	repair          RepairResult
}

// solveEveryEntryPoint runs the instance through the sweep under cfg and
// under RuleExactCritical, SolveWDPSet and Engine.SolveWDP at tg, and a
// RuleExactCritical repair after the sweep's first winner drops out
// before round 1.
func solveEveryEntryPoint(t *testing.T, bids []Bid, cfg Config, tg int) reuseOutputs {
	t.Helper()
	exactCfg := cfg
	exactCfg.PaymentRule = RuleExactCritical
	var out reuseOutputs
	var err error
	if out.critical, err = Run(context.Background(), bids, cfg, RunOptions{}); err != nil && !errors.Is(err, ErrInfeasible) {
		t.Fatal(err)
	}
	eng, err := NewEngine(bids, exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.exact, err = eng.RunCtx(context.Background(), RunOptions{}); err != nil && !errors.Is(err, ErrInfeasible) {
		t.Fatal(err)
	}
	out.set = SolveWDPSet(CompileBids(bids), Qualified(bids, tg, cfg), tg, cfg)
	out.engine = eng.SolveWDP(tg)
	if res := out.exact; res.Feasible && len(res.Winners) > 1 {
		req := RepairRequest{Tg: res.Tg, From: 1, Base: make([]int, res.Tg), Exclude: map[int]bool{}}
		for i, w := range res.Winners {
			req.Exclude[w.Bid.Client] = true
			if i == 0 {
				continue
			}
			for _, s := range w.Slots {
				req.Base[s-1]++
			}
		}
		if out.repair, err = eng.RepairCtx(context.Background(), req, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return out
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

// TestConcurrentStandaloneSolves runs Engine.SolveWDP and SolveWDPSet
// from several goroutines at once, each pair on one freshly compiled
// population, so the lazily built class index and the pooled arenas are
// first reached concurrently. Every result must equal the sequential one.
func TestConcurrentStandaloneSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := Config{T: 10, K: 2, PaymentRule: RuleExactCritical, ExcludeOwnBids: true}
	bids := randomBids(rng, 60, 30, cfg.T)
	ref, err := NewEngine(bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]WDPResult, cfg.T+1)
	feasible := 0
	for tg := 1; tg <= cfg.T; tg++ {
		if want[tg] = ref.SolveWDP(tg); want[tg].Feasible {
			feasible++
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible T̂_g; the fixture needs winners to price")
	}
	eng, err := NewEngine(bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := CompileBids(bids)
	const goroutines = 4
	got := make([][]WDPResult, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]WDPResult, cfg.T+1)
			for tg := 1; tg <= cfg.T; tg++ {
				if g%2 == 0 {
					out[tg] = eng.SolveWDP(tg)
				} else {
					out[tg] = SolveWDPSet(set, Qualified(bids, tg, cfg), tg, cfg)
				}
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for g, out := range got {
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("goroutine %d: concurrent standalone solves diverged from the sequential ones", g)
		}
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
