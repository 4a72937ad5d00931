package core

import (
	"context"
	"math"
)

// PaymentRule selects how winner payments are computed.
type PaymentRule int

const (
	// RuleCritical is the paper's A_payment (Algorithm 3): each winner is
	// paid its marginal utility times the second-smallest average cost in
	// the candidate set of the round it was selected in. It is the zero
	// value deliberately, so Config{} reproduces the paper. The rule is
	// locally critical (Lemma 2) but, because the marginal utility R_il(S)
	// of a deferred schedule can shrink, it is not always the exact
	// Myerson threshold — see RuleExactCritical.
	RuleCritical PaymentRule = iota
	// RuleExactCritical pays each winner the exact critical value of its
	// bid: the supremum claimed price at which the bid still wins, found
	// by bisection over the (price-monotone) greedy allocation. It makes
	// the mechanism exactly truthful in the claimed price at the cost of
	// O(log(1/ε)) probes per winner, answered without re-solving: one
	// allocation-only greedy run with the winner held out, plus one per
	// distinct step at which the probes select it (see pricer.wins).
	//
	// Since pricing is lazy, a full sweep bisects only the winners of the
	// selected T̂_g (see priceWinners); standalone SolveWDP calls still
	// price their result eagerly.
	RuleExactCritical
	// RulePayBid pays each winner its claimed price. Not truthful; used
	// as a baseline in incentive experiments.
	RulePayBid
)

// String returns the rule's name.
func (r PaymentRule) String() string {
	switch r {
	case RuleCritical:
		return "critical"
	case RuleExactCritical:
		return "exact-critical"
	case RulePayBid:
		return "pay-bid"
	default:
		return "unknown"
	}
}

// bisectTol is the absolute convergence tolerance of the critical-value
// bisection at price magnitude x.
func bisectTol(x float64) float64 { return 1e-12 * math.Max(1, x) }

// applyPaymentRule post-processes the payments of a feasible WDP result
// according to cfg.PaymentRule. It is the eager entry point, used where a
// fully priced WDPResult must come back from a single call (SolveWDPSet,
// and Engine.SolveWDP through it); the lazy sweep path prices only the
// selected T̂_g through priceWinners instead. RuleCritical payments were
// already computed during the greedy run. base is the pre-committed
// coverage of the solve (nil for a full market); probes must replay the
// same residual market or the bisection would price the wrong instance.
func applyPaymentRule(set *BidSet, qualified []int, tg int, cfg Config, base []int, res *WDPResult) {
	switch cfg.PaymentRule {
	case RulePayBid:
		for i := range res.Winners {
			res.Winners[i].Payment = res.Winners[i].Bid.Price
		}
	case RuleExactCritical:
		if len(res.Winners) == 0 {
			return
		}
		pr := newPricer(set, qualified, tg, cfg, base)
		defer pr.release()
		for i := range res.Winners {
			// A Background context cannot be canceled, so the error is
			// structurally nil here.
			pay, _, _ := exactCriticalPayment(context.Background(), pr, res.Winners[i])
			res.Winners[i].Payment = pay
		}
	}
}

// exactCriticalPayment bisects for the supremum price at which the
// winner's bid still wins the WDP of pr's market, holding every other
// bid fixed. The allocation is monotone in a bid's price (lowering the
// price can only move its selection to an earlier greedy round), so the
// winning region is an interval [0, c*) and the bisection is exact up to
// tolerance.
//
// win.Payment must carry the Algorithm 3 payment of the greedy run: the
// locally critical value never undercuts the claimed price and usually
// coincides with — or tightly brackets — the exact threshold, so the
// search probes it first and collapses to three probes when it is the
// answer, instead of opening with blind geometric doubling.
//
// When the bid wins at any price (no competing supply), the Algorithm 3
// payment — its own claimed price, by the fallback of A_payment — is kept.
//
// A probe does not re-solve the WDP: pr.hold records one held-out greedy
// run of the winner's probe instance, and pr.wins answers each probe from
// it with what a full solve at that price would return (see
// bisectCritical for the search itself). The caller owns pr, whose
// buffers are the only state a bisection writes, so distinct pricers may
// bisect distinct winners concurrently. A canceled ctx abandons the
// search mid-bisection with an ErrCanceled-wrapping error.
func exactCriticalPayment(ctx context.Context, pr *pricer, win Winner) (pay float64, probes int, err error) {
	if ctx.Err() != nil {
		return 0, 0, canceledErr(ctx)
	}
	pr.hold(win)
	return bisectCritical(win, pr.cfg.ReservePrice, func(price float64) (bool, error) {
		if ctx.Err() != nil {
			return false, canceledErr(ctx)
		}
		return pr.wins(price), nil
	})
}

// bisectCritical is the search of exactCriticalPayment over the probe
// predicate probe(price), which reports whether the winner still wins
// with its price rewritten to price. probes counts the answered probes;
// the first probe error aborts the search and is returned.
func bisectCritical(win Winner, reserve float64, probe func(price float64) (bool, error)) (pay float64, probes int, err error) {
	wins := func(price float64) (bool, error) {
		w, err := probe(price)
		if err == nil {
			probes++
		}
		return w, err
	}
	lo := win.Bid.Price
	w, err := wins(lo)
	if err != nil {
		return 0, probes, err
	}
	if !w {
		// The bid won only through interaction with its sibling bids;
		// without them it loses even at its own price. Pay the price
		// itself to preserve individual rationality.
		return lo, probes, nil
	}
	hi := math.Inf(1)
	if seed := win.Payment; seed > lo && !math.IsInf(seed, 1) &&
		(reserve <= 0 || seed < reserve) {
		// Probe the Algorithm 3 payment and one tolerance step above it:
		// when the locally critical value is the exact threshold (the
		// common case), the search ends here.
		step := bisectTol(seed)
		w, err = wins(seed)
		if err != nil {
			return 0, probes, err
		}
		if w {
			up, uerr := wins(seed + step)
			if uerr != nil {
				return 0, probes, uerr
			}
			if !up {
				return seed, probes, nil
			}
			lo = seed + step
		} else {
			down := seed - step
			if down <= lo {
				return lo, probes, nil
			}
			w, err = wins(down)
			if err != nil {
				return 0, probes, err
			}
			if w {
				return down, probes, nil
			}
			hi = down
		}
	}
	if math.IsInf(hi, 1) {
		if reserve > 0 {
			// With a reserve, prices above it are disqualified, so the
			// threshold lives in [lo, reserve]. An essential winner is paid
			// the reserve itself — a bid-independent value.
			w, err = wins(reserve)
			if err != nil {
				return 0, probes, err
			}
			if w {
				return reserve, probes, nil
			}
			hi = reserve
		} else {
			// Geometric doubling from a positive floor, so a zero-price
			// winner's bracket still grows (hi *= 2 from 0 never would).
			// Winning probes advance lo, keeping the final bracket one
			// doubling wide.
			d := lo
			if d < 1 {
				d = 1
			}
			won := true
			for range 48 {
				d *= 2
				w, err = wins(d)
				if err != nil {
					return 0, probes, err
				}
				if !w {
					won = false
					hi = d
					break
				}
				lo = d
			}
			if won {
				// Essential winner with no reserve configured: no finite
				// critical value exists. Keep the Algorithm 3 payment and
				// accept the (documented) loss of exact truthfulness on this
				// edge; configure ReservePrice to remove it.
				return win.Payment, probes, nil
			}
		}
	}
	for range 64 {
		if hi-lo <= bisectTol(hi) {
			break
		}
		mid := lo + (hi-lo)/2
		w, err = wins(mid)
		if err != nil {
			return 0, probes, err
		}
		if w {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes, nil
}
