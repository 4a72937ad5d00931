package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/fedauction/afl/internal/core"
)

// pricingMarket is one market exactly as the exact-critical pricing stage
// sees it: the population, the qualified set and horizon of the WDP
// being priced, pre-committed coverage (nil for a full market), and the
// greedy's winners carrying their Algorithm 3 payments, which seed each
// winner's bisection.
type pricingMarket struct {
	name      string
	bids      []core.Bid
	qualified []int
	tg        int
	cfg       core.Config
	base      []int
	winners   []core.Winner
}

// newPricingMarket solves the market once under RuleCritical for the
// winners the pricing stage would bisect.
func newPricingMarket(name string, bids []core.Bid, qualified []int, tg int, cfg core.Config, base []int) pricingMarket {
	a3 := cfg
	a3.PaymentRule = core.RuleCritical
	res := core.SolveWDPBase(bids, qualified, tg, a3, base)
	return pricingMarket{name: name, bids: bids, qualified: qualified, tg: tg, cfg: cfg, base: base, winners: res.Winners}
}

// harnessMarkets returns the markets of TestExactCriticalPaymentsGolden:
// the selected T̂_g of every harness workload under every golden variant,
// plus the residual market of its repair request.
func harnessMarkets(t *testing.T, tc diffCase) []pricingMarket {
	t.Helper()
	var out []pricingMarket
	for i, cfg := range goldenVariants(tc) {
		label := fmt.Sprintf("%s/v%d", tc.name, i)
		eng, err := core.NewEngine(tc.bids, cfg)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", label, err)
		}
		res := sweepEngine(t, eng, core.RunOptions{})
		if !res.Feasible {
			continue
		}
		out = append(out, newPricingMarket(label, tc.bids, core.Qualified(tc.bids, res.Tg, cfg), res.Tg, cfg, nil))
		req, ok := repairRequest(res, cfg.K)
		if !ok {
			continue
		}
		residual, _ := core.ResidualBids(eng, req)
		if q := core.Qualified(residual, req.Tg, cfg); len(q) > 0 {
			out = append(out, newPricingMarket(label+"/repair", residual, q, req.Tg, cfg, req.Base))
		}
	}
	return out
}

// fullSolveWins is the oracle of a replayed probe: a full solve of the
// winner's probe instance — under ExcludeOwnBids the qualified set
// without the winner's sibling bids — on a copy of the bids with the
// winner's price rewritten.
func (m pricingMarket) fullSolveWins(win core.Winner, price float64) bool {
	qual := m.qualified
	if m.cfg.ExcludeOwnBids {
		qual = nil
		for _, idx := range m.qualified {
			if idx == win.BidIndex || m.bids[idx].Client != win.Bid.Client {
				qual = append(qual, idx)
			}
		}
	}
	bids := slices.Clone(m.bids)
	bids[win.BidIndex].Price = price
	cfg := m.cfg
	cfg.PaymentRule = core.RuleCritical
	res := core.SolveWDPBase(bids, qual, m.tg, cfg, m.base)
	if !res.Feasible {
		return false
	}
	for _, w := range res.Winners {
		if w.BidIndex == win.BidIndex {
			return true
		}
	}
	return false
}

// checkReplay holds every winner of m out and compares the replayed probe
// answer with the full solve at every price the bisection visits and at
// each recorded step threshold and one ulp either side of it. It returns
// the number of prices compared.
func checkReplay(t *testing.T, m pricingMarket) int {
	t.Helper()
	compared := 0
	check := func(win core.Winner, h *core.HeldOut, price float64) bool {
		compared++
		got, want := h.Wins(price), m.fullSolveWins(win, price)
		if got != want {
			t.Errorf("%s: winner bid %d at price %v (%016x): replay says %v, full solve %v",
				m.name, win.BidIndex, price, math.Float64bits(price), got, want)
		}
		return want
	}
	for _, win := range m.winners {
		h := core.HoldWinner(m.bids, m.qualified, m.tg, m.cfg, m.base, win)
		// The full solve drives the search, so the visited prices are
		// exactly those of a bisection over full solves.
		core.BisectCritical(win, m.cfg.ReservePrice, func(price float64) bool {
			return check(win, h, price)
		})
		for _, th := range h.Thresholds() {
			for _, p := range []float64{math.Nextafter(th, math.Inf(-1)), th, math.Nextafter(th, math.Inf(1))} {
				if p >= 0 {
					check(win, h, p)
				}
			}
		}
		h.Release()
		if t.Failed() {
			return compared
		}
	}
	return compared
}

// TestPricingReplayMatchesFullSolve is the differential lock on replayed
// pricing probes: on every winner of the golden workloads (the harness
// crossed with ExcludeOwnBids, a reserve price and ScheduleEarliest, plus
// each repair's residual market), the held-out run's answer must equal a
// full solve of the probe instance at every price the bisection visits
// and around every step threshold the run recorded.
func TestPricingReplayMatchesFullSolve(t *testing.T) {
	cases := append(generatedCases(t), degenerateCases()...)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, m := range harnessMarkets(t, tc) {
				checkReplay(t, m)
			}
		})
	}
}

// TestPricingReplayEdgeCases covers the probe shapes random workloads
// rarely produce, each on the full-solve oracle of checkReplay, and pins
// the payment each one should come to.
func TestPricingReplayEdgeCases(t *testing.T) {
	window := func(client int, price float64, start, end, rounds int) core.Bid {
		return core.Bid{Client: client, Price: price, Theta: 0.5, Start: start, End: end, Rounds: rounds}
	}
	cases := []struct {
		name string
		bids []core.Bid
		cfg  core.Config
		// winner is the bid whose payment is pinned; pay is that payment
		// to within the bisection tolerance.
		winner int
		pay    float64
	}{{
		// Equal prices on equal windows: the keys tie, so the bid index
		// decides at every threshold. Bid 1 wins slot 1 only because bid
		// 2, at the same price, sorts after it.
		name: "tied-keys",
		bids: []core.Bid{
			window(0, 5, 2, 2, 1),
			window(1, 5, 1, 1, 1),
			window(2, 5, 1, 1, 1),
			window(3, 5, 2, 2, 1),
		},
		cfg:    core.Config{T: 2, K: 1},
		winner: 1, pay: 5,
	}, {
		// A zero-price winner: the doubling bracket starts from a
		// positive floor and finds client 2's price.
		name: "zero-price-winner",
		bids: []core.Bid{
			window(0, 0, 1, 2, 2),
			window(1, 0, 1, 1, 1),
			window(2, 6, 1, 2, 2),
		},
		cfg:    core.Config{T: 2, K: 1},
		winner: 0, pay: 6,
	}, {
		// An essential winner with no reserve: nobody else covers slot
		// 2, so it wins at every doubling and keeps its Algorithm 3
		// payment, twice client 1's average cost.
		name: "essential-no-reserve",
		bids: []core.Bid{
			window(0, 4, 1, 2, 2),
			window(1, 3, 1, 1, 1),
		},
		cfg:    core.Config{T: 2, K: 1},
		winner: 0, pay: 6,
	}, {
		// The winner's own sibling undercuts it once its price passes 3:
		// the sibling is selected first and takes the client out of C.
		name: "sibling-selected-first",
		bids: []core.Bid{
			window(0, 2, 1, 2, 2),
			window(0, 3, 1, 2, 2),
			window(1, 10, 1, 2, 2),
		},
		cfg:    core.Config{T: 2, K: 1},
		winner: 0, pay: 3,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.PaymentRule = core.RuleExactCritical
			m := newPricingMarket(tc.name, tc.bids, core.Qualified(tc.bids, 2, cfg), 2, cfg, nil)
			if checkReplay(t, m) == 0 {
				t.Fatal("no probe compared")
			}
			for _, win := range m.winners {
				if win.BidIndex != tc.winner {
					continue
				}
				h := core.HoldWinner(m.bids, m.qualified, m.tg, m.cfg, nil, win)
				defer h.Release()
				pay, _ := core.BisectCritical(win, 0, h.Wins)
				if math.Abs(pay-tc.pay) > 1e-9 {
					t.Fatalf("winner bid %d paid %v, want %v", win.BidIndex, pay, tc.pay)
				}
				return
			}
			t.Fatalf("bid %d is not a winner: %+v", tc.winner, m.winners)
		})
	}
}
