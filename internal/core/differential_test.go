package core_test

// Differential-testing harness for the incremental WDP engine.
//
// Every workload is solved four ways through the live code — Run and
// Engine.RunCtx, each at one worker and over a pool — and once
// through internal/seedwdp, a frozen verbatim copy of the pre-engine
// solver. The four live paths must agree byte-for-byte (reflect.DeepEqual
// on the full Result, including unexported dual bookkeeping), and the
// live result must match the seed oracle on everything the oracle
// exposes: feasibility, T_g*, social cost, winners, schedules, payments,
// per-WDP outcomes and the complete dual certificate.
//
// Payments are rule-aware since pricing went lazy: under RuleCritical the
// claim stays full bit-identity, while under the post-processing rules
// (RulePayBid, RuleExactCritical) the live sweep prices only the selected
// T̂_g, so non-selected WDPs are held bit-identical to a RuleCritical
// oracle run (Algorithm 3 payments; the allocation is payment-independent)
// and the selected T̂_g's payments to the rule-applied oracle — exactly
// for RulePayBid, within 1e-9 relative for RuleExactCritical, whose
// bracket-seeded bisection converges to the same critical value as the
// oracle's blind-doubling search but not to the same last bit. The exact
// bit-level claim for the lazy path lives in
// TestDifferentialLazyPricingVsEagerReference, which compares against the
// eager-serial reference seedwdp.RunEager (same search, applied
// eagerly).
//
// This is the correctness lock that lets the engine share qualification
// delta lists, client groupings and pooled scratch arenas across the
// T̂_g sweep: any divergence in greedy order, tie-breaking, payments or
// duals fails here on one of ~200 seeded workloads spanning varied
// I, J, T, K, window shapes and degenerate cases (K beyond supply,
// single-slot windows, uniform prices, boundary accuracies).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/seedwdp"
	"github.com/fedauction/afl/internal/workload"
)

// diffCase is one differential workload: a bid population plus an
// auction configuration.
type diffCase struct {
	name string
	bids []core.Bid
	cfg  core.Config
}

// generatedCases draws seeded §VII-A-style populations at varied scale
// and configuration. With 8 parameter variants × seeds it contributes
// the bulk of the ~200 workloads.
func generatedCases(t *testing.T) []diffCase {
	t.Helper()
	type variant struct {
		name     string
		clients  int
		bidsPer  int
		T, K     int
		model    workload.CostModel
		diurnal  float64
		schedule core.ScheduleRule
		rule     core.PaymentRule
		exclude  bool
		reserve  float64
	}
	variants := []variant{
		{name: "tiny", clients: 4, bidsPer: 1, T: 4, K: 1},
		{name: "small", clients: 12, bidsPer: 2, T: 8, K: 2},
		{name: "mid", clients: 30, bidsPer: 3, T: 10, K: 3},
		{name: "wide", clients: 24, bidsPer: 5, T: 14, K: 2},
		{name: "tight-k", clients: 10, bidsPer: 2, T: 6, K: 5}, // often infeasible
		{name: "resource", clients: 20, bidsPer: 3, T: 10, K: 2, model: workload.CostResource},
		{name: "diurnal", clients: 20, bidsPer: 3, T: 12, K: 2, diurnal: 2.5},
		{name: "earliest", clients: 16, bidsPer: 3, T: 10, K: 2, schedule: core.ScheduleEarliest},
		{name: "paybid", clients: 14, bidsPer: 2, T: 8, K: 2, rule: core.RulePayBid},
		{name: "reserve", clients: 18, bidsPer: 3, T: 9, K: 2, reserve: 35},
		{name: "exact-critical", clients: 8, bidsPer: 2, T: 5, K: 1,
			rule: core.RuleExactCritical, exclude: true, reserve: 120},
	}
	const seedsPerVariant = 18
	var cases []diffCase
	for _, v := range variants {
		for seed := int64(1); seed <= seedsPerVariant; seed++ {
			p := workload.NewDefaultParams()
			p.Clients = v.clients
			p.BidsPerUser = v.bidsPer
			p.T = v.T
			p.K = v.K
			p.Seed = seed
			p.CostModel = v.model
			p.DiurnalPeak = v.diurnal
			bids, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("variant %s seed %d: %v", v.name, seed, err)
			}
			cfg := p.Config()
			cfg.ScheduleRule = v.schedule
			cfg.PaymentRule = v.rule
			cfg.ExcludeOwnBids = v.exclude
			cfg.ReservePrice = v.reserve
			cases = append(cases, diffCase{
				name: fmt.Sprintf("%s/seed%d", v.name, seed),
				bids: bids,
				cfg:  cfg,
			})
		}
	}
	return cases
}

// degenerateCases hand-builds the edge shapes random draws rarely hit.
func degenerateCases() []diffCase {
	singleSlot := func(n int) []core.Bid {
		var bids []core.Bid
		for i := 0; i < n; i++ {
			t := 1 + i%5
			bids = append(bids, core.Bid{
				Client: i, Price: float64(1 + i), Theta: 0.5,
				Start: t, End: t, Rounds: 1,
			})
		}
		return bids
	}
	uniformPrice := func(n int) []core.Bid {
		var bids []core.Bid
		for i := 0; i < n; i++ {
			bids = append(bids, core.Bid{
				Client: i, Price: 10, Theta: 0.5,
				Start: 1 + i%3, End: 4 + i%3, Rounds: 2,
			})
		}
		return bids
	}
	boundaryTheta := func() []core.Bid {
		var bids []core.Bid
		for tg := 2; tg <= 6; tg++ {
			theta := 1 - 1/float64(tg)
			bids = append(bids, core.Bid{
				Client: tg, Price: float64(tg), Theta: theta,
				Start: 1, End: 6, Rounds: 2,
			})
		}
		return bids
	}
	multiMinded := func() []core.Bid {
		var bids []core.Bid
		for c := 0; c < 3; c++ {
			for j := 0; j < 4; j++ {
				bids = append(bids, core.Bid{
					Client: c, Index: j, Price: float64(2 + c + j), Theta: 0.5,
					Start: 1 + j, End: 4 + j, Rounds: 1 + j%2,
				})
			}
		}
		return bids
	}
	return []diffCase{
		{name: "degenerate/k-beyond-supply", bids: singleSlot(3), cfg: core.Config{T: 5, K: 4}},
		{name: "degenerate/single-slot-windows", bids: singleSlot(10), cfg: core.Config{T: 5, K: 2}},
		{name: "degenerate/one-bid", bids: singleSlot(1), cfg: core.Config{T: 5, K: 1}},
		{name: "degenerate/uniform-prices", bids: uniformPrice(8), cfg: core.Config{T: 6, K: 2}},
		{name: "degenerate/uniform-prices-paybid", bids: uniformPrice(8),
			cfg: core.Config{T: 6, K: 2, PaymentRule: core.RulePayBid}},
		{name: "degenerate/boundary-theta", bids: boundaryTheta(), cfg: core.Config{T: 6, K: 1}},
		{name: "degenerate/multi-minded", bids: multiMinded(), cfg: core.Config{T: 7, K: 2}},
		{name: "degenerate/multi-minded-exclude", bids: multiMinded(),
			cfg: core.Config{T: 7, K: 2, PaymentRule: core.RuleExactCritical,
				ExcludeOwnBids: true, ReservePrice: 50}},
		{name: "degenerate/paper-example", bids: []core.Bid{
			{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
			{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
			{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
		}, cfg: core.Config{T: 3, K: 1}},
		// At the second pick the best schedule of the grand set G is
		// client 0's unselected bid, not the winner: Dual.Omega is 2, and
		// 1 if G's best misses the siblings of earlier winners.
		{name: "degenerate/grand-set-sibling", bids: []core.Bid{
			{Client: 0, Price: 1, Theta: 0.3, Start: 1, End: 1, Rounds: 1},
			{Client: 0, Index: 1, Price: 1.5, Theta: 0.3, Start: 2, End: 2, Rounds: 1},
			{Client: 1, Price: 3, Theta: 0.3, Start: 2, End: 2, Rounds: 1},
		}, cfg: core.Config{T: 2, K: 1}},
	}
}

// payTolerance is the per-rule payment comparison tolerance against the
// rule-applied seed oracle on the selected T̂_g: 0 demands bit-identity
// (RuleCritical everywhere, RulePayBid — the claimed price both ways);
// RuleExactCritical allows 1e-9 relative slack between the seeded and the
// blind-doubling bisection, both of which stop within 1e-12·scale of the
// critical value.
func payTolerance(rule core.PaymentRule) float64 {
	if rule == core.RuleExactCritical {
		return 1e-9
	}
	return 0
}

func paymentsMatch(got, want, tol float64) bool {
	if tol == 0 {
		return got == want
	}
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// assertSeedEqual compares a live Result with the frozen-oracle Results on
// every field the oracle exposes. want is the rule-applied oracle run;
// wantA3 is an oracle run of the same workload under RuleCritical, the
// payments the lazy sweep leaves on non-selected WDPs (pass want itself
// when cfg.PaymentRule is RuleCritical). Everything except
// RuleExactCritical payments on the selected T̂_g is compared with ==: the
// claim is bit-identity, not approximation.
func assertSeedEqual(t *testing.T, got core.Result, want, wantA3 seedwdp.Result, cfg core.Config) {
	t.Helper()
	if got.Feasible != want.Feasible {
		t.Fatalf("Feasible = %v, seed oracle %v", got.Feasible, want.Feasible)
	}
	if got.Tg != want.Tg || got.Cost != want.Cost {
		t.Fatalf("Tg/Cost = %d/%v, seed oracle %d/%v", got.Tg, got.Cost, want.Tg, want.Cost)
	}
	tol := payTolerance(cfg.PaymentRule)
	assertSeedWinnersEqual(t, "auction", got.Winners, want.Winners, tol)
	if !reflect.DeepEqual(got.Dual, want.Dual) {
		t.Fatalf("Dual = %+v, seed oracle %+v", got.Dual, want.Dual)
	}
	if len(got.WDPs) != len(want.WDPs) || len(got.WDPs) != len(wantA3.WDPs) {
		t.Fatalf("len(WDPs) = %d, seed oracle %d/%d", len(got.WDPs), len(want.WDPs), len(wantA3.WDPs))
	}
	for i := range got.WDPs {
		g, w := got.WDPs[i], want.WDPs[i]
		if g.Tg != w.Tg || g.Feasible != w.Feasible || g.Cost != w.Cost || g.Rounds != w.Rounds {
			t.Fatalf("WDP[%d] = {Tg %d Feasible %v Cost %v Rounds %d}, seed oracle {Tg %d Feasible %v Cost %v Rounds %d}",
				i, g.Tg, g.Feasible, g.Cost, g.Rounds, w.Tg, w.Feasible, w.Cost, w.Rounds)
		}
		if chosen := got.Feasible && g.Tg == got.Tg; chosen {
			assertSeedWinnersEqual(t, fmt.Sprintf("WDP[%d]", i), g.Winners, w.Winners, tol)
		} else {
			// Non-selected candidates are priced lazily never: they carry
			// the in-greedy Algorithm 3 payments bit-for-bit.
			assertSeedWinnersEqual(t, fmt.Sprintf("WDP[%d] (A3)", i), g.Winners, wantA3.WDPs[i].Winners, 0)
		}
		if g.Feasible && !reflect.DeepEqual(g.Dual, w.Dual) {
			t.Fatalf("WDP[%d] dual diverged from seed oracle", i)
		}
	}
}

func assertSeedWinnersEqual(t *testing.T, where string, got []core.Winner, want []seedwdp.Winner, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d winners, seed oracle %d", where, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.BidIndex != w.BidIndex || g.Bid != w.Bid ||
			!paymentsMatch(g.Payment, w.Payment, tol) || g.AvgCost != w.AvgCost ||
			!reflect.DeepEqual(g.Slots, w.Slots) {
			t.Fatalf("%s winner %d = {bid %d pay %v avg %v slots %v}, seed oracle {bid %d pay %v avg %v slots %v}",
				where, i, g.BidIndex, g.Payment, g.AvgCost, g.Slots,
				w.BidIndex, w.Payment, w.AvgCost, w.Slots)
		}
	}
}

// sweep runs the auction through Run with opts. An infeasible auction is
// a Result here, not a failure; any other error fails the test.
func sweep(t testing.TB, bids []core.Bid, cfg core.Config, opts core.RunOptions) core.Result {
	t.Helper()
	res, err := core.Run(context.Background(), bids, cfg, opts)
	if err != nil && !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// sweepEngine is sweep on a prepared engine.
func sweepEngine(t testing.TB, eng *core.Engine, opts core.RunOptions) core.Result {
	t.Helper()
	res, err := eng.RunCtx(context.Background(), opts)
	if err != nil && !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("RunCtx: %v", err)
	}
	return res
}

// TestDifferentialEngineVsSeed is the harness entry point: ~200 seeded
// workloads, four live paths, one frozen oracle, full bit-identity.
func TestDifferentialEngineVsSeed(t *testing.T) {
	cases := append(generatedCases(t), degenerateCases()...)
	if len(cases) < 200 {
		t.Fatalf("harness shrank to %d workloads; keep it near 200", len(cases))
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			seq := sweep(t, tc.bids, tc.cfg, core.RunOptions{})
			if conc := sweep(t, tc.bids, tc.cfg, core.RunOptions{Workers: 3}); !reflect.DeepEqual(seq, conc) {
				t.Fatal("Run over 3 workers diverged from Run")
			}
			eng, err := core.NewEngine(tc.bids, tc.cfg)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			if got := sweepEngine(t, eng, core.RunOptions{}); !reflect.DeepEqual(seq, got) {
				t.Fatal("Engine.RunCtx diverged from Run")
			}
			if got := sweepEngine(t, eng, core.RunOptions{Workers: 2}); !reflect.DeepEqual(seq, got) {
				t.Fatal("Engine.RunCtx over 2 workers diverged from Run")
			}
			oracle, err := seedwdp.RunAuction(tc.bids, tc.cfg)
			if err != nil {
				t.Fatalf("seed oracle: %v", err)
			}
			oracleA3 := oracle
			if tc.cfg.PaymentRule != core.RuleCritical {
				cfgA3 := tc.cfg
				cfgA3.PaymentRule = core.RuleCritical
				if oracleA3, err = seedwdp.RunAuction(tc.bids, cfgA3); err != nil {
					t.Fatalf("seed A3 oracle: %v", err)
				}
			}
			assertSeedEqual(t, seq, oracle, oracleA3, tc.cfg)
			if seq.Feasible {
				if err := core.CheckSolution(tc.bids, seq, tc.cfg); err != nil {
					t.Fatalf("solution fails ILP(6) verification: %v", err)
				}
			}
		})
	}
}

// TestDifferentialFixedTg sweeps every T̂_g of a mid-size population
// through the standalone SolveWDP, the Engine's context path and the
// seed oracle, covering the fixed-T̂_g entry points (RunWDP, Fig. 3/7
// experiments) that the full-auction harness exercises only indirectly.
// It also holds every WDP of the sweep, whose class heads a segment
// carries across its T̂_g, to Engine.SolveWDP, which folds them fresh for
// its one T̂_g, duals included.
func TestDifferentialFixedTg(t *testing.T) {
	p := workload.NewDefaultParams()
	p.Clients = 25
	p.BidsPerUser = 3
	p.T = 12
	p.K = 2
	for seed := int64(1); seed <= 6; seed++ {
		p.Seed = seed
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := p.Config()
		eng, err := core.NewEngine(bids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tg := 1; tg <= cfg.T; tg++ {
			direct := core.SolveWDP(bids, core.Qualified(bids, tg, cfg), tg, cfg)
			viaEngine := eng.SolveWDP(tg)
			if !reflect.DeepEqual(direct, viaEngine) {
				t.Fatalf("seed %d tg=%d: Engine.SolveWDP diverged from SolveWDP", seed, tg)
			}
			oracle := seedwdp.SolveWDP(bids, seedwdp.Qualified(bids, tg, cfg), tg, cfg)
			if direct.Tg != oracle.Tg || direct.Feasible != oracle.Feasible ||
				direct.Cost != oracle.Cost || direct.Rounds != oracle.Rounds {
				t.Fatalf("seed %d tg=%d: WDP outcome diverged from seed oracle", seed, tg)
			}
			assertSeedWinnersEqual(t, fmt.Sprintf("seed %d tg=%d", seed, tg), direct.Winners, oracle.Winners, 0)
			if direct.Feasible && !reflect.DeepEqual(direct.Dual, oracle.Dual) {
				t.Fatalf("seed %d tg=%d: dual diverged from seed oracle", seed, tg)
			}
		}
		for _, wdp := range sweepEngine(t, eng, core.RunOptions{}).WDPs {
			if !reflect.DeepEqual(wdp, eng.SolveWDP(wdp.Tg)) {
				t.Fatalf("seed %d tg=%d: sweep WDP with class heads carried across its segment diverged from Engine.SolveWDP with heads folded fresh", seed, wdp.Tg)
			}
		}
	}
}

// TestLazyPaymentSemanticsPinned pins the documented Result.WDPs
// contract (see result.go): under a post-processing payment rule the
// non-selected candidates keep their in-greedy Algorithm 3 payments —
// bit-identical to a RuleCritical run of the same workload — while the
// selected T̂_g's entry and the top-level Winners it aliases are fully
// priced, bit-identical to the eager reference.
func TestLazyPaymentSemanticsPinned(t *testing.T) {
	p := workload.NewDefaultParams()
	p.Clients = 16
	p.BidsPerUser = 2
	p.T = 8
	p.K = 2
	for seed := int64(1); seed <= 4; seed++ {
		p.Seed = seed
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := p.Config()
		cfg.PaymentRule = core.RuleExactCritical
		cfg.ExcludeOwnBids = true
		lazy := sweep(t, bids, cfg, core.RunOptions{})
		if !lazy.Feasible {
			t.Fatalf("seed %d: workload infeasible, fixture needs winners", seed)
		}
		cfgA3 := cfg
		cfgA3.PaymentRule = core.RuleCritical
		a3 := sweep(t, bids, cfgA3, core.RunOptions{})
		eager, err := seedwdp.RunEager(bids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range lazy.WDPs {
			if lazy.WDPs[i].Tg == lazy.Tg {
				if !reflect.DeepEqual(lazy.WDPs[i].Winners, eager.WDPs[i].Winners) {
					t.Fatalf("seed %d: selected WDP[%d] not bit-identical to the eager reference", seed, i)
				}
				if !reflect.DeepEqual(lazy.Winners, lazy.WDPs[i].Winners) {
					t.Fatalf("seed %d: Result.Winners does not alias the selected WDP's winners", seed)
				}
				continue
			}
			if !reflect.DeepEqual(lazy.WDPs[i].Winners, a3.WDPs[i].Winners) {
				t.Fatalf("seed %d: non-selected WDP[%d] should carry Algorithm 3 payments", seed, i)
			}
		}
		if lazy.TotalPayment() != eager.TotalPayment() {
			t.Fatalf("seed %d: TotalPayment %v, eager reference %v", seed, lazy.TotalPayment(), eager.TotalPayment())
		}
	}
}

// TestDifferentialLazyPricingVsEagerReference forces RuleExactCritical on
// the whole workload corpus and holds the lazy pricing path — serial and
// over a 4-worker pool — to byte-identity with the retained eager-serial
// reference seedwdp.RunEager on the selected T̂_g: winners, payments,
// schedules, cost and dual, via reflect.DeepEqual with no tolerance. Both
// sides run the identical seeded bisection on identical inputs, so
// lazification must change where pricing happens, never what it computes.
func TestDifferentialLazyPricingVsEagerReference(t *testing.T) {
	cases := append(generatedCases(t), degenerateCases()...)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.PaymentRule = core.RuleExactCritical
			eager, err := seedwdp.RunEager(tc.bids, cfg)
			if err != nil {
				t.Fatalf("RunEager: %v", err)
			}
			for _, workers := range []int{1, 4} {
				lazy := sweep(t, tc.bids, cfg, core.RunOptions{Workers: workers})
				if lazy.Feasible != eager.Feasible || lazy.Tg != eager.Tg ||
					lazy.Cost != eager.Cost || lazy.TotalPayment() != eager.TotalPayment() {
					t.Fatalf("workers=%d: outcome {%v %d %v %v} diverged from eager reference {%v %d %v %v}",
						workers, lazy.Feasible, lazy.Tg, lazy.Cost, lazy.TotalPayment(),
						eager.Feasible, eager.Tg, eager.Cost, eager.TotalPayment())
				}
				if !reflect.DeepEqual(lazy.Winners, eager.Winners) {
					t.Fatalf("workers=%d: chosen-T̂_g winners diverged from eager reference", workers)
				}
				if !reflect.DeepEqual(lazy.Dual, eager.Dual) {
					t.Fatalf("workers=%d: dual diverged from eager reference", workers)
				}
			}
		})
	}
}

// TestDifferentialColumnar10kVsSeed scales the differential harness to a
// 10⁴-bid single-minded population — large enough that the sweep engages
// the class-based selection fast path on every T̂_g with thousands of
// qualified bids per solve — and holds the columnar entry point to the
// frozen seed oracle at workers ∈ {1, 8}: full assertSeedEqual identity,
// DeepEqual across worker counts, DeepEqual against the []Bid compat
// wrapper, and ILP(6) verification of the chosen solution.
func TestDifferentialColumnar10kVsSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-bid differential run skipped under -short")
	}
	p := workload.NewDefaultParams()
	p.Clients = 10_000
	p.BidsPerUser = 1
	p.Seed = 7
	bids, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	set := core.CompileBids(bids)
	eng, err := core.NewEngineSet(set, cfg)
	if err != nil {
		t.Fatalf("NewEngineSet: %v", err)
	}
	w1 := sweepEngine(t, eng, core.RunOptions{})
	if got := sweepEngine(t, eng, core.RunOptions{Workers: 8}); !reflect.DeepEqual(w1, got) {
		t.Fatal("workers=8 diverged from workers=1 on the columnar path")
	}
	if rows := sweep(t, bids, cfg, core.RunOptions{}); !reflect.DeepEqual(rows, w1) {
		t.Fatal("[]Bid compat wrapper diverged from the columnar path")
	}
	oracle, err := seedwdp.RunAuction(bids, cfg)
	if err != nil {
		t.Fatalf("seed oracle: %v", err)
	}
	assertSeedEqual(t, w1, oracle, oracle, cfg)
	if !w1.Feasible {
		t.Fatal("10⁴-bid workload infeasible; the fixture needs winners")
	}
	if err := core.CheckSolution(bids, w1, cfg); err != nil {
		t.Fatalf("solution fails ILP(6) verification: %v", err)
	}
}
