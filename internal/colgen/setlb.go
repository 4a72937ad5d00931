package colgen

import (
	"math"
	"slices"
	"sort"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/lp"
)

// BidSet-native column generation.
//
// The row entry point (LowerBound) compiled its bid slice on every call
// and priced every qualified bid individually: one best-slot computation
// — an O(W log W) partial sort over the availability window — per bid per
// pricing round. Over the compiled population the same pass collapses
// along the shape-class index the greedy sweep already maintains: bids
// sharing a window shape (start, end, rounds) have identical best-slot
// sets against any dual vector, so the pass computes one best-slot set
// per distinct shape and walks each class's members in ascending
// (price, bid) order, breaking out of the class as soon as
//
//	price − gain ≥ max(0, max_i q_i)
//
// since reduced costs ρ − gain − q are nondecreasing in ρ within a class
// and every convexity dual q_i is ≤ max_i q_i. Skipped bids therefore
// have nonnegative reduced cost: they would neither enter the master nor
// contribute to the Lagrangian bound (which sums only negative terms), so
// the early exit is exact, not heuristic. For T = 50 a million-bid
// population has at most ~22k shapes, so a pricing round does thousands
// of best-slot computations instead of a million.

// SetLowerBound runs column generation for the WDP with the given
// qualified bids and fixed T̂_g directly over a compiled population,
// reusing its columns and shape-class index. It is the native entry
// point; LowerBound is a thin compile-then-delegate wrapper and returns
// bit-identical bounds (locked in by the differential suite).
func SetLowerBound(set *core.BidSet, qualified []int, tg int, cfg core.Config, opts Options) Result {
	if set == nil || tg < 1 || len(qualified) == 0 {
		return Result{}
	}
	seed := core.SolveWDPSet(set, qualified, tg, cfg)
	res, _, _ := lowerBoundSet(set, qualified, tg, cfg, opts, seed)
	return res
}

// Certifier adapts the column-generation bound to the core solver's
// LPCertifier hook: the approximate sweep hands it the greedy seed of the
// selected T̂_g and receives a lower bound plus the fractional columns of
// the final master for LP-guided rounding. The zero value selects
// aggressive budget caps tuned for the sweep's latency envelope (the
// dense master is the bottleneck at large populations; the Lagrangian
// fallback keeps the bound valid whenever a cap fires); set Opts for
// offline runs that want convergence.
type Certifier struct {
	Opts Options
}

// CertifyWDP implements core.LPCertifier.
func (c Certifier) CertifyWDP(set *core.BidSet, qualified []int, tg int, cfg core.Config, seed core.WDPResult) core.LPOutcome {
	if set == nil || tg < 1 || !seed.Feasible {
		return core.LPOutcome{}
	}
	opts := c.Opts
	if opts == (Options{}) {
		opts = Options{
			MaxIterations:     8,
			MaxColumnsPerIter: 64,
			MaxColumns:        len(seed.Winners) + 512,
		}
	}
	res, cols, x := lowerBoundSet(set, qualified, tg, cfg, opts, seed)
	if !res.Feasible {
		return core.LPOutcome{}
	}
	out := core.LPOutcome{
		Valid:      true,
		Converged:  res.Converged,
		LowerBound: res.LowerBound,
	}
	// x aligns with the cols prefix present at the last master solve;
	// columns appended afterwards never carry primal value.
	for j := range x {
		if x[j] > 1e-9 {
			out.Columns = append(out.Columns, core.LPColumn{
				Bid: cols[j].bid, Slots: cols[j].slots, Value: x[j],
			})
		}
	}
	return out
}

// lowerBoundSet is the column-generation loop over a compiled population:
// seed columns from the greedy cover, solve the restricted master, price
// by shape class, repeat until convergence or a budget cap. It returns
// the bound, the generated columns and the final master's primal point
// (aligned with the column prefix of its last solve) for rounding.
func lowerBoundSet(set *core.BidSet, qualified []int, tg int, cfg core.Config, opts Options, seed core.WDPResult) (Result, []column, []float64) {
	if !seed.Feasible {
		return Result{}, nil, nil
	}

	cols := make([]column, 0, len(seed.Winners))
	seen := make(map[colKey][]int)
	addCol := func(c column) bool {
		k := c.key()
		for _, j := range seen[k] {
			if slotsEqual(cols[j].slots, c.slots) {
				return false
			}
		}
		seen[k] = append(seen[k], len(cols))
		cols = append(cols, c)
		return true
	}
	for _, w := range seed.Winners {
		addCol(column{bid: w.BidIndex, client: w.Bid.Client, slots: w.Slots, cost: w.Bid.Price})
	}

	// Qualification bitmap: the class walk covers every member of every
	// class, so per-solve qualification is applied by lookup.
	qual := make([]bool, set.Len())
	for _, idx := range qualified {
		qual[idx] = true
	}

	res := Result{Feasible: true}
	var lastX []float64
	fallback := func(lb float64) (Result, []column, []float64) {
		if seed.Dual.Objective > lb {
			lb = seed.Dual.Objective // the greedy dual bound is always valid
		}
		res.LowerBound = lb
		return res, cols, lastX
	}
	maxIter := opts.maxIterations()
	for iter := 0; ; iter++ {
		sol, clientRow, err := solveMaster(cols, tg, cfg.K)
		if err != nil || sol.Status != lp.Optimal {
			res.LPValue = math.NaN()
			return fallback(math.Inf(-1))
		}
		res.LPValue = sol.Objective
		res.Iterations = iter + 1
		res.Columns = len(cols)
		lastX = sol.X

		g := sol.Duals[:tg] // coverage duals, ≥ 0
		q := func(client int) float64 {
			if row, ok := clientRow[client]; ok {
				return sol.Duals[tg+row]
			}
			return 0 // convexity row absent → slack → dual zero
		}
		// Convexity duals are ≤ 0 at an exact optimum, but the dense
		// master is finite-precision: the early-exit threshold absorbs any
		// positive drift so skipped bids provably price nonnegative.
		maxQ := 0.0
		for _, row := range clientRow {
			if d := sol.Duals[tg+row]; d > maxQ {
				maxQ = d
			}
		}

		type priced struct {
			rc  float64
			col column
		}
		var negatives []priced
		bestPerClient := make(map[int]float64)
		price := func(idx int, slots []int, gain float64) {
			client := set.ClientAt(idx)
			rc := set.PriceAt(idx) - gain - q(client)
			if rc < bestPerClient[client] {
				bestPerClient[client] = rc
			}
			if rc < -1e-7 {
				cs := make([]int, len(slots))
				copy(cs, slots)
				negatives = append(negatives, priced{rc: rc, col: column{
					bid: idx, client: client, slots: cs, cost: set.PriceAt(idx),
				}})
			}
		}
		if nc := set.ShapeClassCount(); nc > 0 {
			for c := 0; c < nc; c++ {
				lo, hi, r := set.ShapeClass(c)
				slots, gain := bestSlotsShape(lo, hi, r, tg, g)
				if slots == nil {
					continue
				}
				for _, idx := range set.ShapeClassMembers(c) {
					if !qual[idx] {
						continue
					}
					if set.PriceAt(idx)-gain >= maxQ {
						break // ascending price: the rest of the class prices ≥ 0
					}
					price(idx, slots, gain)
				}
			}
		} else {
			// Price views carry no class index; fall back to the per-bid pass.
			for _, idx := range qualified {
				lo, hi, r := set.WindowAt(idx)
				slots, gain := bestSlotsShape(lo, hi, r, tg, g)
				if slots == nil {
					continue
				}
				price(idx, slots, gain)
			}
		}
		// Sum in ascending client order: float addition is not
		// associative, and map order would make the bound's low bits
		// differ between calls on identical inputs.
		clients := make([]int, 0, len(bestPerClient))
		for client := range bestPerClient {
			clients = append(clients, client)
		}
		slices.Sort(clients)
		var lagrangian float64
		for _, client := range clients {
			lagrangian += bestPerClient[client] // each ≤ 0
		}
		if len(negatives) == 0 {
			res.Converged = true
			res.LowerBound = sol.Objective
			return res, cols, lastX
		}
		budgetLeft := opts.maxColumns() - len(cols)
		if iter+1 >= maxIter || budgetLeft <= 0 {
			return fallback(sol.Objective + lagrangian)
		}
		// (rc, bid) is a total order — one column per bid per round — so
		// the insertion order is deterministic regardless of walk order.
		sort.Slice(negatives, func(a, b int) bool {
			if negatives[a].rc != negatives[b].rc {
				return negatives[a].rc < negatives[b].rc
			}
			return negatives[a].col.bid < negatives[b].col.bid
		})
		limit := min(opts.maxPerIter(), budgetLeft, len(negatives))
		improved := false
		for _, p := range negatives[:limit] {
			if addCol(p.col) {
				improved = true
			}
		}
		if !improved {
			// Every priced column already exists: numerical drift; the
			// Lagrangian bound remains valid.
			return fallback(sol.Objective + lagrangian)
		}
	}
}

// bestSlotsShape returns the r iterations with the largest coverage duals
// inside the clipped window [lo, min(hi, tg)], ascending, plus their dual
// sum — the best column of every bid sharing that window shape.
func bestSlotsShape(lo, hi, r, tg int, g []float64) ([]int, float64) {
	if hi > tg {
		hi = tg
	}
	n := hi - lo + 1
	if n < r {
		return nil, 0
	}
	cand := make([]int, 0, n)
	for t := lo; t <= hi; t++ {
		cand = append(cand, t)
	}
	sort.Slice(cand, func(a, c int) bool {
		ga, gc := g[cand[a]-1], g[cand[c]-1]
		if ga != gc {
			return ga > gc
		}
		return cand[a] < cand[c]
	})
	cand = cand[:r]
	var sum float64
	for _, t := range cand {
		sum += g[t-1]
	}
	sort.Ints(cand)
	return cand, sum
}
