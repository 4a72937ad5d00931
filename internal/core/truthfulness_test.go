package core_test

// Truthfulness regression suite for the incremental engine. The in-package
// mechanism tests (mechanism_test.go) probe the seed solver directly; this
// file locks the same economic properties onto the public Engine path, so a
// future change to the shared-context plumbing that silently altered
// payments or selection would fail here even if it kept costs intact:
//
//   - under RuleExactCritical no single-minded client — winner or loser —
//     can increase its utility by misreporting its price, including
//     misreports placed just above and just below the computed payment
//     (the Myerson critical-value property);
//   - A_winner's cost sits between the exact optimum (internal/exact
//     brute force) and RatioBound·optimum, and the dual certificate
//     lower-bounds the optimum;
//   - RuleCritical reproduces the §V-B worked example exactly through
//     both public entry points (RunWDP and Engine.SolveWDP).

import (
	"context"
	"reflect"
	"testing"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/exact"
	"github.com/fedauction/afl/internal/seedwdp"
	"github.com/fedauction/afl/internal/workload"
)

// tinyParams draws a single-minded population small enough for brute-force
// cross-checks. Prices stay below the reserve so the reserve only bounds
// the critical-value bisection, never the qualification.
func tinyParams(seed int64, clients, t, k int) workload.Params {
	p := workload.NewDefaultParams()
	p.Clients = clients
	p.BidsPerUser = 1
	p.T = t
	p.K = k
	p.TMax = 120
	p.Seed = seed
	return p
}

// engineWDPUtility overrides one bid's claimed price, re-solves the fixed
// T̂_g WDP through a fresh Engine, and returns the bidding client's
// utility: payment minus true cost if one of its bids won, 0 otherwise.
func engineWDPUtility(t *testing.T, bids []core.Bid, victim int, claimed float64, tg int, cfg core.Config) float64 {
	t.Helper()
	mod := make([]core.Bid, len(bids))
	copy(mod, bids)
	mod[victim].Price = claimed
	eng, err := core.NewEngine(mod, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res := eng.SolveWDP(tg)
	if !res.Feasible {
		return 0
	}
	for _, w := range res.Winners {
		if w.Bid.Client == bids[victim].Client {
			return w.Payment - w.Bid.Cost()
		}
	}
	return 0
}

// TestEngineExactCriticalTruthfulness asserts that under RuleExactCritical
// no unilateral price misreport strictly increases a single-minded
// client's utility on the Engine path. Winners are additionally probed at
// claims just below and just above their computed payment: below must keep
// them winning (the payment is a threshold, not a function of the claim),
// above must not be profitable.
func TestEngineExactCriticalTruthfulness(t *testing.T) {
	winnersProbed, losersProbed := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		p := tinyParams(seed, 5+int(seed%5), 6, 1+int(seed%2))
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range bids {
			bids[i].TrueCost = bids[i].Price
		}
		cfg := p.Config()
		cfg.PaymentRule = core.RuleExactCritical
		cfg.ExcludeOwnBids = true
		cfg.ReservePrice = 500
		eng, err := core.NewEngine(bids, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := sweepEngine(t, eng, core.RunOptions{})
		if !base.Feasible {
			continue
		}
		// The parallel pricing pool must not perturb the economics the
		// probes below certify: 4 workers, bit-identical result.
		if par, err := eng.RunCtx(context.Background(), core.RunOptions{Workers: 4}); err != nil {
			t.Fatalf("seed %d: RunCtx(Workers:4): %v", seed, err)
		} else if !reflect.DeepEqual(par, base) {
			t.Fatalf("seed %d: parallel pricing diverged from the serial run", seed)
		}
		tg := base.Tg
		won := make(map[int]core.Winner)
		for _, w := range base.Winners {
			won[w.BidIndex] = w
		}
		for victim := range bids {
			truthful := engineWDPUtility(t, bids, victim, bids[victim].Price, tg, cfg)
			if truthful < -1e-9 {
				t.Fatalf("seed %d bid %d: truthful utility %.9f negative — individual rationality broken",
					seed, victim, truthful)
			}
			claims := []float64{
				bids[victim].Price * 0.5,
				bids[victim].Price * 0.9,
				bids[victim].Price * 1.1,
				bids[victim].Price * 1.5,
				bids[victim].Price * 2.5,
			}
			if w, ok := won[victim]; ok {
				winnersProbed++
				claims = append(claims, w.Payment*(1-1e-3), w.Payment*(1+1e-3))
			} else {
				losersProbed++
			}
			for _, claimed := range claims {
				if claimed <= 0 {
					continue
				}
				lying := engineWDPUtility(t, bids, victim, claimed, tg, cfg)
				if lying > truthful+1e-6 {
					t.Fatalf("seed %d bid %d (client %d): misreport %.4f→%.4f raises utility %.6f→%.6f",
						seed, victim, bids[victim].Client, bids[victim].Price, claimed, truthful, lying)
				}
			}
			if w, ok := won[victim]; ok && w.Payment > bids[victim].Price*(1+1e-9) {
				// Claiming just below the payment must keep the client a
				// winner at (essentially) the same payment: utility grows
				// by exactly the drop in claimed-vs-true cost gap, i.e.
				// stays equal since true cost is unchanged.
				under := engineWDPUtility(t, bids, victim, w.Payment*(1-1e-3), tg, cfg)
				if under < truthful-1e-4 {
					t.Fatalf("seed %d bid %d: claiming below payment %.4f dropped utility %.6f→%.6f — payment is not a critical value",
						seed, victim, w.Payment, truthful, under)
				}
			}
		}
	}
	if winnersProbed == 0 || losersProbed == 0 {
		t.Fatalf("degenerate probe mix: %d winners, %d losers", winnersProbed, losersProbed)
	}
}

// TestParallelPricingMisreportProbes extends the misreport probes to the
// lazy-parallel pricing path. Incentive compatibility proper is a fixed-
// T̂_g property (a misreport can shift the Algorithm 1 argmin, so the
// full-sweep utility is not monotone in the claim; the fixed-T̂_g probes
// live in TestEngineExactCriticalTruthfulness, whose instances the
// parallel path must reproduce bit-for-bit). What the probes here
// certify is therefore:
//
//   - misreport equivalence: on every perturbed market, a full concurrent
//     auction (sweep and exact-critical pricing fanned over 4 workers)
//     returns exactly the winners and payments of the eager-serial
//     reference, so lazification and the worker pool preserve whatever
//     incentives the eager mechanism has, claim by claim;
//   - individual rationality on the parallel path: a winner's payment
//     never undercuts its claimed price.
func TestParallelPricingMisreportProbes(t *testing.T) {
	probed := 0
	probe := func(bids []core.Bid, victim int, claimed float64, cfg core.Config) {
		t.Helper()
		mod := make([]core.Bid, len(bids))
		copy(mod, bids)
		mod[victim].Price = claimed
		par := sweep(t, mod, cfg, core.RunOptions{Workers: 4})
		eager, err := seedwdp.RunEager(mod, cfg)
		if err != nil {
			t.Fatalf("RunEager: %v", err)
		}
		if par.Feasible != eager.Feasible || par.Tg != eager.Tg ||
			!reflect.DeepEqual(par.Winners, eager.Winners) {
			t.Fatalf("bid %d claiming %.4f: parallel outcome diverged from the eager reference",
				victim, claimed)
		}
		for _, w := range par.Winners {
			if w.Payment < w.Bid.Price-1e-9 {
				t.Fatalf("bid %d claiming %.4f: winner %d paid %.6f below its price %.6f",
					victim, claimed, w.BidIndex, w.Payment, w.Bid.Price)
			}
		}
		probed++
	}
	for seed := int64(1); seed <= 6; seed++ {
		p := tinyParams(200+seed, 5+int(seed%4), 6, 1+int(seed%2))
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range bids {
			bids[i].TrueCost = bids[i].Price
		}
		cfg := p.Config()
		cfg.PaymentRule = core.RuleExactCritical
		cfg.ExcludeOwnBids = true
		cfg.ReservePrice = 500
		for victim := range bids {
			for _, factor := range []float64{0.6, 1.0, 1.4, 2.2} {
				probe(bids, victim, bids[victim].Price*factor, cfg)
			}
		}
	}
	if probed < 100 {
		t.Fatalf("only %d misreports probed", probed)
	}
}

// TestEngineCostBracketsExactOptimum cross-checks the Engine's greedy WDP
// against the brute-force optimum on every feasible T̂_g of tiny
// instances: optimum ≤ greedy cost ≤ RatioBound·optimum, and the dual
// certificate never exceeds the optimum.
func TestEngineCostBracketsExactOptimum(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 12; seed++ {
		p := tinyParams(100+seed, 4+int(seed%4), 5, 1+int(seed%2))
		if seed%3 == 0 {
			p.BidsPerUser = 2 // exercise one-bid-per-client in the optimum too
		}
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := p.Config()
		eng, err := core.NewEngine(bids, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for tg := 1; tg <= cfg.T; tg++ {
			res := eng.SolveWDP(tg)
			if !res.Feasible {
				continue // greedy A_winner is incomplete: it may miss solutions
			}
			qualified := core.Qualified(bids, tg, cfg)
			opt, ok := exact.BruteForce(bids, qualified, tg, cfg.K)
			if !ok {
				t.Fatalf("seed %d tg=%d: engine found a solution brute force says cannot exist", seed, tg)
			}
			checked++
			if res.Cost < opt-1e-9 {
				t.Fatalf("seed %d tg=%d: greedy cost %.9f below optimum %.9f", seed, tg, res.Cost, opt)
			}
			if res.Cost > res.Dual.RatioBound*opt+1e-6 {
				t.Fatalf("seed %d tg=%d: greedy cost %.6f exceeds RatioBound %.3f × optimum %.6f",
					seed, tg, res.Cost, res.Dual.RatioBound, opt)
			}
			if res.Dual.Bound() > opt+1e-6 {
				t.Fatalf("seed %d tg=%d: dual bound %.6f exceeds optimum %.6f — certificate invalid",
					seed, tg, res.Dual.Bound(), opt)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d feasible WDPs cross-checked against brute force", checked)
	}
}

// TestWorkedExamplePublicPaths reproduces the §V-B worked example —
// B1($2,[1,2],1), B2($6,[2,3],2), B3($5,[1,3],2) with T̂_g = 3, K = 1 —
// through both public entry points and asserts the paper's exact numbers:
// winners B1 (payment 2.5, slot {1}) and B3 (payment 6, slots {2,3}),
// total cost 7.
func TestWorkedExamplePublicPaths(t *testing.T) {
	bids := []core.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	cfg := core.Config{T: 3, K: 1, PaymentRule: core.RuleCritical}

	fromRunWDP, err := core.RunWDP(bids, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromEngine := eng.SolveWDP(3)

	for name, res := range map[string]core.WDPResult{"RunWDP": fromRunWDP, "Engine.SolveWDP": fromEngine} {
		if !res.Feasible {
			t.Fatalf("%s: worked example must be feasible", name)
		}
		if res.Cost != 7.0 {
			t.Fatalf("%s: cost = %v, want 7", name, res.Cost)
		}
		if len(res.Winners) != 2 {
			t.Fatalf("%s: %d winners, want 2", name, len(res.Winners))
		}
		w1, w2 := res.Winners[0], res.Winners[1]
		if w1.BidIndex != 0 || w1.Payment != 2.5 || len(w1.Slots) != 1 || w1.Slots[0] != 1 {
			t.Fatalf("%s: first winner = bid %d payment %v slots %v, want bid 0 payment 2.5 slots [1]",
				name, w1.BidIndex, w1.Payment, w1.Slots)
		}
		if w2.BidIndex != 2 || w2.Payment != 6.0 || len(w2.Slots) != 2 || w2.Slots[0] != 2 || w2.Slots[1] != 3 {
			t.Fatalf("%s: second winner = bid %d payment %v slots %v, want bid 2 payment 6 slots [2 3]",
				name, w2.BidIndex, w2.Payment, w2.Slots)
		}
	}
}

// setWDPUtility is engineWDPUtility through the columnar facade: the
// misreported population is recompiled with CompileBids and solved via
// NewEngineSet.
func setWDPUtility(t *testing.T, bids []core.Bid, victim int, claimed float64, tg int, cfg core.Config) float64 {
	t.Helper()
	mod := make([]core.Bid, len(bids))
	copy(mod, bids)
	mod[victim].Price = claimed
	eng, err := core.NewEngineSet(core.CompileBids(mod), cfg)
	if err != nil {
		t.Fatalf("NewEngineSet: %v", err)
	}
	res := eng.SolveWDP(tg)
	if !res.Feasible {
		return 0
	}
	for _, w := range res.Winners {
		if w.Bid.Client == bids[victim].Client {
			return w.Payment - w.Bid.Cost()
		}
	}
	return 0
}

// TestColumnarExactCriticalMisreportProbes replays the misreport probes
// through the columnar ingestion path. Two claims per probe: the set
// path's utility equals the row path's EXACTLY (== on float64 — the
// columnar engine is a layout change, not an arithmetic change), and no
// misreport beats truthful bidding through the set path either.
func TestColumnarExactCriticalMisreportProbes(t *testing.T) {
	probed := 0
	for seed := int64(1); seed <= 8; seed++ {
		p := tinyParams(400+seed, 5+int(seed%4), 6, 1+int(seed%2))
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range bids {
			bids[i].TrueCost = bids[i].Price
		}
		cfg := p.Config()
		cfg.PaymentRule = core.RuleExactCritical
		cfg.ExcludeOwnBids = true
		cfg.ReservePrice = 500
		set := core.CompileBids(bids)
		eng, err := core.NewEngineSet(set, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := sweepEngine(t, eng, core.RunOptions{})
		if !reflect.DeepEqual(base, sweep(t, bids, cfg, core.RunOptions{})) {
			t.Fatalf("seed %d: columnar full auction diverged from the row path", seed)
		}
		if !base.Feasible {
			continue
		}
		tg := base.Tg
		for victim := range bids {
			truthful := setWDPUtility(t, bids, victim, bids[victim].Price, tg, cfg)
			for _, factor := range []float64{0.6, 0.9, 1.1, 1.8} {
				claimed := bids[victim].Price * factor
				viaSet := setWDPUtility(t, bids, victim, claimed, tg, cfg)
				viaRows := engineWDPUtility(t, bids, victim, claimed, tg, cfg)
				if viaSet != viaRows {
					t.Fatalf("seed %d bid %d claiming %.4f: set utility %.9f != row utility %.9f",
						seed, victim, claimed, viaSet, viaRows)
				}
				if viaSet > truthful+1e-6 {
					t.Fatalf("seed %d bid %d: misreport %.4f→%.4f raises columnar utility %.6f→%.6f",
						seed, victim, bids[victim].Price, claimed, truthful, viaSet)
				}
				probed++
			}
		}
	}
	if probed < 100 {
		t.Fatalf("only %d columnar misreports probed", probed)
	}
}
