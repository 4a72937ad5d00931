package core

import (
	"context"
	"errors"
	"testing"

	"github.com/fedauction/afl/internal/stats"
)

// wdpUtility runs SolveWDP after overriding one bid's claimed price and
// returns the bidding client's utility: payment minus the true cost of
// whichever of its bids actually won (0 if none did).
func wdpUtility(bids []Bid, victim int, claimed float64, tg int, cfg Config) float64 {
	mod := make([]Bid, len(bids))
	copy(mod, bids)
	mod[victim].Price = claimed
	res := SolveWDP(mod, Qualified(mod, tg, cfg), tg, cfg)
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

// TestWDPTruthfulnessExactCritical checks strict truthfulness under the
// exact critical-value payment rule in the single-parameter setting the
// Myerson characterization covers: victims are clients with exactly one
// bid, and a reserve price gives essential bids a finite, bid-independent
// payment. No unilateral price misreport may strictly increase a client's
// utility.
func TestWDPTruthfulnessExactCritical(t *testing.T) {
	rng := stats.NewRNG(314)
	probed := 0
	for trial := 0; trial < 120 && probed < 40; trial++ {
		bids, tg, k := randomWDPInstance(rng)
		cfg := Config{T: tg, K: k, PaymentRule: RuleExactCritical, ExcludeOwnBids: true, ReservePrice: 500}
		for i := range bids {
			bids[i].TrueCost = bids[i].Price
		}
		base := SolveWDP(bids, Qualified(bids, tg, cfg), tg, cfg)
		if !base.Feasible {
			continue
		}
		victim := singleBidVictim(bids, rng)
		if victim < 0 {
			continue
		}
		probed++
		truthful := wdpUtility(bids, victim, bids[victim].Price, tg, cfg)
		for _, factor := range []float64{0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2, 4} {
			misreport := bids[victim].Price * factor
			lying := wdpUtility(bids, victim, misreport, tg, cfg)
			if lying > truthful+1e-6 {
				t.Fatalf("trial %d: client %d gains by misreporting %.4f→%.4f: utility %.6f > %.6f",
					trial, bids[victim].Client, bids[victim].Price, misreport, lying, truthful)
			}
		}
	}
	if probed == 0 {
		t.Fatal("no single-bid victims probed")
	}
}

// singleBidVictim returns the index of a uniformly chosen bid whose client
// submitted only that bid, or -1 if every client is multi-minded.
func singleBidVictim(bids []Bid, rng *stats.RNG) int {
	perClient := make(map[int]int)
	for _, b := range bids {
		perClient[b.Client]++
	}
	var candidates []int
	for i, b := range bids {
		if perClient[b.Client] == 1 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[rng.Intn(len(candidates))]
}

// TestMultiMindedManipulation measures, for both payment rules, how often
// a multi-minded client profits from re-pricing one of its bids. Exact
// truthfulness for multi-minded (XOR) bidders is a multi-parameter
// mechanism-design problem outside both Myerson's characterization and the
// paper's proofs; this test documents the residual manipulation surface
// instead of asserting it away.
func TestMultiMindedManipulation(t *testing.T) {
	for _, rule := range []PaymentRule{RuleCritical, RuleExactCritical} {
		t.Run(rule.String(), func(t *testing.T) {
			rng := stats.NewRNG(4242)
			probes, violations := 0, 0
			for trial := 0; trial < 60; trial++ {
				bids, tg, k := randomWDPInstance(rng)
				cfg := Config{T: tg, K: k, PaymentRule: rule, ExcludeOwnBids: true, ReservePrice: 500}
				for i := range bids {
					bids[i].TrueCost = bids[i].Price
				}
				base := SolveWDP(bids, Qualified(bids, tg, cfg), tg, cfg)
				if !base.Feasible {
					continue
				}
				victim := rng.Intn(len(bids))
				truthful := wdpUtility(bids, victim, bids[victim].Price, tg, cfg)
				for _, factor := range []float64{0.5, 1.5, 3} {
					probes++
					if wdpUtility(bids, victim, bids[victim].Price*factor, tg, cfg) > truthful+1e-9 {
						violations++
					}
				}
			}
			if probes == 0 {
				t.Fatal("no feasible probes")
			}
			rate := float64(violations) / float64(probes)
			t.Logf("%s: %d/%d profitable multi-minded misreports (%.1f%%)", rule, violations, probes, 100*rate)
			if rate > 0.15 {
				t.Fatalf("manipulation rate %.1f%% unexpectedly high", 100*rate)
			}
		})
	}
}

// TestWDPAlgorithm3NearTruthfulness measures how close the paper's
// Algorithm 3 payment is to truthful. The payment is critical only within
// the selection round (Lemma 2); across rounds the marginal utility of a
// deferred schedule can shrink, so small profitable misreports exist. The
// test pins down that (a) violations are rare and (b) the gain is bounded
// by the achievable payment spread, documenting the reproduction finding
// rather than asserting a property the implementation does not have.
func TestWDPAlgorithm3NearTruthfulness(t *testing.T) {
	rng := stats.NewRNG(1618)
	probes, violations := 0, 0
	var worstGain float64
	for trial := 0; trial < 80; trial++ {
		bids, tg, k := randomWDPInstance(rng)
		cfg := Config{T: tg, K: k, ExcludeOwnBids: true}
		for i := range bids {
			bids[i].TrueCost = bids[i].Price
		}
		base := SolveWDP(bids, Qualified(bids, tg, cfg), tg, cfg)
		if !base.Feasible {
			continue
		}
		victim := rng.Intn(len(bids))
		truthful := wdpUtility(bids, victim, bids[victim].Price, tg, cfg)
		for _, factor := range []float64{0.5, 0.8, 1.25, 2} {
			probes++
			lying := wdpUtility(bids, victim, bids[victim].Price*factor, tg, cfg)
			if gain := lying - truthful; gain > 1e-9 {
				violations++
				if gain > worstGain {
					worstGain = gain
				}
			}
		}
	}
	if probes == 0 {
		t.Fatal("no feasible probes")
	}
	rate := float64(violations) / float64(probes)
	t.Logf("Algorithm 3 misreport probes: %d, profitable: %d (%.1f%%), worst gain %.3f",
		probes, violations, 100*rate, worstGain)
	if rate > 0.10 {
		t.Fatalf("Algorithm 3 profitable-misreport rate %.1f%% unexpectedly high", 100*rate)
	}
}

// TestWDPIndividualRationality checks Theorem 2 for all payment rules:
// every winner's payment is at least its claimed price.
func TestWDPIndividualRationality(t *testing.T) {
	rules := []PaymentRule{RuleCritical, RuleExactCritical, RulePayBid}
	for _, rule := range rules {
		t.Run(rule.String(), func(t *testing.T) {
			rng := stats.NewRNG(2718)
			for trial := 0; trial < 50; trial++ {
				bids, tg, k := randomWDPInstance(rng)
				cfg := Config{T: tg, K: k, PaymentRule: rule}
				res := SolveWDP(bids, Qualified(bids, tg, cfg), tg, cfg)
				if !res.Feasible {
					continue
				}
				for _, w := range res.Winners {
					if w.Payment < w.Bid.Price-1e-9 {
						t.Fatalf("trial %d: winner %s paid %.6f < price %.6f",
							trial, w.Bid, w.Payment, w.Bid.Price)
					}
				}
			}
		})
	}
}

// TestWDPMonotonicity checks Lemma 1: a winning bid that unilaterally
// lowers its price is still selected. The greedy is selection-monotone
// (the lowered bid is picked no later than before), but because
// Algorithm 2 never backtracks, an earlier selection can occasionally
// steer the rest of the run into a dead end and make the *whole* WDP
// infeasible — a mechanism edge the paper's "enough clients" assumption
// papers over. Those feasibility collapses are counted and bounded; when
// the run stays feasible, winning is asserted strictly.
func TestWDPMonotonicity(t *testing.T) {
	rng := stats.NewRNG(161803)
	probes, collapses := 0, 0
	for trial := 0; trial < 60; trial++ {
		bids, tg, k := randomWDPInstance(rng)
		cfg := Config{T: tg, K: k}
		res := SolveWDP(bids, Qualified(bids, tg, cfg), tg, cfg)
		if !res.Feasible || len(res.Winners) == 0 {
			continue
		}
		w := res.Winners[rng.Intn(len(res.Winners))]
		for _, factor := range []float64{0.3, 0.6, 0.9} {
			probes++
			mod := make([]Bid, len(bids))
			copy(mod, bids)
			mod[w.BidIndex].Price *= factor
			res2 := SolveWDP(mod, Qualified(mod, tg, cfg), tg, cfg)
			if !res2.Feasible {
				collapses++
				continue
			}
			stillWins := false
			for _, w2 := range res2.Winners {
				if w2.BidIndex == w.BidIndex {
					stillWins = true
					break
				}
			}
			if !stillWins {
				t.Fatalf("trial %d: bid %d lost after lowering its price ×%.1f",
					trial, w.BidIndex, factor)
			}
		}
	}
	if probes == 0 {
		t.Fatal("no probes ran")
	}
	rate := float64(collapses) / float64(probes)
	t.Logf("feasibility collapses after price cuts: %d/%d (%.1f%%)", collapses, probes, 100*rate)
	if rate > 0.05 {
		t.Fatalf("feasibility-collapse rate %.1f%% unexpectedly high", 100*rate)
	}
}

// TestWDPExactCriticalIsThreshold verifies the defining property of the
// exact rule: bidding just below the payment wins, just above loses
// (whenever a finite threshold exists).
func TestWDPExactCriticalIsThreshold(t *testing.T) {
	rng := stats.NewRNG(577)
	checked := 0
	for trial := 0; trial < 200 && checked < 25; trial++ {
		bids, tg, k := randomWDPInstance(rng)
		cfg := Config{T: tg, K: k, PaymentRule: RuleExactCritical, ExcludeOwnBids: true, ReservePrice: 10000}
		res := SolveWDP(bids, Qualified(bids, tg, cfg), tg, cfg)
		if !res.Feasible || len(res.Winners) == 0 {
			continue
		}
		w := res.Winners[0]
		if w.Payment <= w.Bid.Price*1.001 {
			continue // no margin to probe on either side
		}
		singleBid := true
		for i, b := range bids {
			if i != w.BidIndex && b.Client == w.Bid.Client {
				singleBid = false
				break
			}
		}
		if !singleBid {
			// The payment threshold is defined on the sibling-free probe
			// instance; probing the original instance would conflate the
			// multi-minded channel measured elsewhere.
			continue
		}
		checked++
		probe := func(price float64) bool {
			mod := make([]Bid, len(bids))
			copy(mod, bids)
			mod[w.BidIndex].Price = price
			r2 := SolveWDP(mod, Qualified(mod, tg, cfg), tg, cfg)
			for _, w2 := range r2.Winners {
				if w2.BidIndex == w.BidIndex {
					return true
				}
			}
			return false
		}
		if !probe(w.Payment * 0.999) {
			t.Fatalf("trial %d: bidding just below the exact payment (%.6f) lost", trial, w.Payment)
		}
		if probe(w.Payment * 1.001) {
			t.Fatalf("trial %d: bidding just above the exact payment (%.6f) still wins", trial, w.Payment)
		}
	}
	if checked == 0 {
		t.Fatal("no instance exercised the threshold probe")
	}
}

// TestAuctionIndividualRationality extends IR to the full A_FL enumeration.
func TestAuctionIndividualRationality(t *testing.T) {
	rng := stats.NewRNG(8128)
	cfg := Config{T: 10, K: 2, TMax: 60}
	for trial := 0; trial < 40; trial++ {
		bids := randomAuctionBids(rng, cfg.T, 10)
		res, err := Run(context.Background(), bids, cfg, RunOptions{})
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Winners {
			if w.Payment < w.Bid.Price-1e-9 {
				t.Fatalf("trial %d: winner %s paid %.6f < price %.6f",
					trial, w.Bid, w.Payment, w.Bid.Price)
			}
			if w.Utility() < -1e-9 {
				t.Fatalf("trial %d: negative utility %.6f for %s", trial, w.Utility(), w.Bid)
			}
		}
	}
}

func TestPaymentRuleString(t *testing.T) {
	tests := []struct {
		rule PaymentRule
		want string
	}{
		{RuleCritical, "critical"},
		{RuleExactCritical, "exact-critical"},
		{RulePayBid, "pay-bid"},
		{PaymentRule(99), "unknown"},
	}
	for _, tc := range tests {
		if got := tc.rule.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", tc.rule, got, tc.want)
		}
	}
}

func TestConfigValidatePaymentRule(t *testing.T) {
	cfg := Config{T: 5, K: 1, PaymentRule: PaymentRule(42)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected unknown-payment-rule error")
	}
}

func TestPayBidRule(t *testing.T) {
	bids := exampleBids()
	cfg := Config{T: 3, K: 1, PaymentRule: RulePayBid}
	res := SolveWDP(bids, []int{0, 1, 2}, 3, cfg)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	for _, w := range res.Winners {
		if w.Payment != w.Bid.Price {
			t.Fatalf("pay-bid payment %v ≠ price %v", w.Payment, w.Bid.Price)
		}
	}
}
