package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// exactPaymentFixture solves one WDP and bisects the exact critical
// payment of its first winner, returning the winner, payment and probe
// count. It drives the unexported search directly so the fixtures below
// can use zero-price bids, which ValidateBids rejects at the public
// boundary.
func exactPaymentFixture(t *testing.T, ctx context.Context, bids []Bid, tg int, cfg Config) (Winner, float64, int) {
	t.Helper()
	qualified := Qualified(bids, tg, cfg)
	set := CompileBids(bids)
	res := solveOnce(set, qualified, tg, cfg, nil)
	if !res.Feasible || len(res.Winners) == 0 {
		t.Fatalf("fixture WDP infeasible: %+v", res)
	}
	pr := newPricer(set, qualified, tg, cfg, nil)
	defer pr.release()
	pay, probes, err := exactCriticalPayment(ctx, pr, res.Winners[0])
	if ctx.Err() == nil && err != nil {
		t.Fatalf("exactCriticalPayment: %v", err)
	}
	if ctx.Err() != nil {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled context: err = %v, want ErrCanceled", err)
		}
		return res.Winners[0], 0, probes
	}
	return res.Winners[0], pay, probes
}

// TestExactCriticalZeroPriceWinner pins the zero-price-winner fix: the
// old search doubled hi starting from the winner's own price, so a
// zero-price winner's bracket never grew — 48 probes at price 0, then the
// Algorithm 3 fallback (here 0, since a zero-price competitor remains)
// instead of the true critical value. The positive doubling floor finds
// it: client 2's 6-priced bid is the schedule that would replace the
// winner once it out-prices slot 2's residual competition.
func TestExactCriticalZeroPriceWinner(t *testing.T) {
	bids := []Bid{
		{Client: 0, Price: 0, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
		{Client: 1, Price: 0, Theta: 0.5, Start: 1, End: 1, Rounds: 1},
		{Client: 2, Price: 6, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
	}
	cfg := Config{T: 2, K: 1, PaymentRule: RuleExactCritical}
	win, pay, probes := exactPaymentFixture(t, context.Background(), bids, 2, cfg)
	if win.BidIndex != 0 || win.Payment != 0 {
		t.Fatalf("fixture winner = bid %d with A3 payment %v, want bid 0 at 0", win.BidIndex, win.Payment)
	}
	if math.Abs(pay-6) > 1e-6 {
		t.Fatalf("critical payment = %v, want 6 (the price at which client 2 takes slot 2)", pay)
	}
	if probes >= 64 {
		t.Fatalf("search used %d probes; the doubling floor should find the bracket in a handful", probes)
	}
}

// TestExactCriticalSeedEarlyExit pins the bracket seeding: when the
// Algorithm 3 payment is the exact critical value (two full-window bids
// competing for the same slots), the search must confirm it with exactly
// three probes — own price, the seed, one tolerance step above — and
// return the seed bit-for-bit, instead of opening a blind doubling
// bracket and bisecting.
func TestExactCriticalSeedEarlyExit(t *testing.T) {
	bids := []Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
		{Client: 1, Price: 10, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
	}
	cfg := Config{T: 2, K: 1, PaymentRule: RuleExactCritical}
	win, pay, probes := exactPaymentFixture(t, context.Background(), bids, 2, cfg)
	if win.BidIndex != 0 || win.Payment != 10 {
		t.Fatalf("fixture winner = bid %d with A3 payment %v, want bid 0 at 10", win.BidIndex, win.Payment)
	}
	if pay != 10 {
		t.Fatalf("critical payment = %v, want exactly 10 (the confirmed seed)", pay)
	}
	if probes != 3 {
		t.Fatalf("search used %d probes, want exactly 3 (price, seed, seed+step)", probes)
	}
}

// TestExactCriticalCanceledContext verifies the bisection honors a
// canceled context before its first probe, reporting ErrCanceled.
func TestExactCriticalCanceledContext(t *testing.T) {
	bids := []Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
		{Client: 1, Price: 10, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
	}
	cfg := Config{T: 2, K: 1, PaymentRule: RuleExactCritical}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, probes := exactPaymentFixture(t, ctx, bids, 2, cfg)
	if probes != 0 {
		t.Fatalf("canceled context consumed %d probes, want 0", probes)
	}
}
