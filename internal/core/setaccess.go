package core

import "math"

// Read-only column and shape-class accessors over a compiled population.
//
// They exist for the column-generation package, which prices bids against
// LP duals directly on the compiled columns: per-bid Bid() copies would
// dominate a pricing pass over 10⁵⁺ bids, and the shape-class index turns
// that pass from one best-slot computation per bid into one per distinct
// availability-window shape, with a price-ordered early exit inside each
// class. The accessors are exact views — no recomputation, no copies
// beyond scalar reads — so a consumer sees precisely the columns the
// greedy solver uses.

// PriceAt returns bid i's claimed price ρ.
func (s *BidSet) PriceAt(i int) float64 { return s.price[i] }

// ClientAt returns the client that owns bid i.
func (s *BidSet) ClientAt(i int) int { return s.client[i] }

// WindowAt returns bid i's availability window [start, end] and its
// required participation rounds.
func (s *BidSet) WindowAt(i int) (start, end, rounds int) {
	return s.start[i], s.end[i], s.rounds[i]
}

// ShapeClassCount returns the number of distinct availability-window
// shapes (start, end, rounds) in the population, building the class index
// on first use. It returns 0 for a zero BidSet, which was never
// compiled.
func (s *BidSet) ShapeClassCount() int {
	ci := s.classes()
	if ci == nil {
		return 0
	}
	return ci.n
}

// ShapeClass returns the window shape of class c.
func (s *BidSet) ShapeClass(c int) (start, end, rounds int) {
	ci := s.classes()
	return ci.lo[c], ci.hi[c], ci.r[c]
}

// ShapeClassMembers returns class c's bid indices in ascending
// (price, bid) order — the greedy's intra-class selection order. The
// returned slice aliases the index; callers must not mutate it.
func (s *BidSet) ShapeClassMembers(c int) []int {
	ci := s.classes()
	row := ci.members[ci.memberStart[c]:ci.memberStart[c+1]]
	return row[:len(row):len(row)]
}

// SolveWDPSet is SolveWDP over an already compiled population. It is
// also the seeding entry of the column-generation lower bound, which
// operates on the same BidSet and must start from exactly the cover the
// sweep would produce at tg. Working state comes from a pooled scratch
// arena, so a call only allocates what escapes into the returned
// WDPResult. The result is priced eagerly: a single-WDP caller expects a
// finished result, whereas the sweep leaves solveWDP's Algorithm 3
// payments in place and prices only the selected T̂_g (priceWinners).
func SolveWDPSet(set *BidSet, qualified []int, tg int, cfg Config) WDPResult {
	if tg < 1 || len(qualified) == 0 {
		return WDPResult{Tg: tg}
	}
	if cfg.K > math.MaxInt/tg {
		// Guard before sizing the arena: a K·tg that overflows int is
		// unfillable demand, not a tg-sized allocation request.
		return WDPResult{Tg: tg}
	}
	res := solveOnce(set, qualified, tg, cfg, nil)
	applyPaymentRule(set, qualified, tg, cfg, nil, &res)
	return res
}
