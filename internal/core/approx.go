package core

import (
	"context"
	"math"
	"slices"
	"time"

	"github.com/fedauction/afl/internal/obs"
)

// Approximate sweep tiers (SolverCoarseFine, SolverLPRound): the sweep
// solves only a subset of the candidate T̂_g values and certifies the
// skipped ones with the capacity lower bound, so the returned Certificate
// bounds the cost of the reported cover against what the FULL exact
// enumeration would have returned. See solver.go for the certificate
// semantics.

// defaultStride is the base coarse stride when RunOptions.Stride is 0:
// solve every 4th candidate, adapt with the observed cost curvature.
const defaultStride = 4

// Curvature thresholds of the adaptive stride: the relative second
// difference of consecutive coarse costs above curvHigh halves the
// stride (the cost curve is bending — sample densely near the bend),
// below curvLow the stride grows by one up to 2× the base (the curve is
// flat — coarse samples suffice).
const (
	curvHigh = 0.02
	curvLow  = 0.002
)

// strideController drives the adaptive coarse pass. pick is called for
// every candidate T̂_g in ascending order by the masked sweep segment;
// by the time pick(tg) runs, the result of the previously picked
// candidate is already in out, so the controller folds it into the
// stride before deciding. All state is derived from solve results alone,
// keeping the candidate selection a pure function of the instance.
type strideController struct {
	out    []WDPResult
	t0, T  int
	base   int
	stride int
	next   int // next candidate to solve
	last   int // most recently picked candidate, -1 when consumed
	costs  [3]float64
	ncosts int
}

func newStrideController(out []WDPResult, t0, T, base int) *strideController {
	if base < 1 {
		base = defaultStride
	}
	return &strideController{out: out, t0: t0, T: T, base: base, stride: base, next: t0, last: -1}
}

// pick reports whether tg joins the coarse set, absorbing the previous
// pick's outcome into the stride first.
func (c *strideController) pick(tg int) bool {
	if c.last >= c.t0 {
		c.absorb(&c.out[c.last-c.t0])
		c.last = -1
	}
	if tg < c.next && tg != c.T {
		return false
	}
	c.last = tg
	c.next = tg + c.stride
	return true
}

// absorb updates the stride from one coarse solve: infeasibility resets
// to the base (the feasibility boundary must not be overshot), and the
// relative second difference of the last three feasible costs bends the
// stride toward dense sampling where the cost curve turns.
func (c *strideController) absorb(w *WDPResult) {
	if !w.Feasible {
		c.stride = c.base
		c.ncosts = 0
		return
	}
	if c.ncosts < len(c.costs) {
		c.costs[c.ncosts] = w.Cost
		c.ncosts++
	} else {
		c.costs[0], c.costs[1], c.costs[2] = c.costs[1], c.costs[2], w.Cost
	}
	if c.ncosts < 3 {
		return
	}
	d2 := math.Abs(c.costs[2]-2*c.costs[1]+c.costs[0]) / math.Max(math.Abs(c.costs[2]), 1e-9)
	switch {
	case d2 > curvHigh:
		if c.stride > 1 {
			c.stride /= 2
		}
	case d2 < curvLow:
		// Base 1 is the documented exact-dense mode: never coarsen it.
		if c.base > 1 && c.stride < 2*c.base {
			c.stride++
		}
	}
}

// capacityIndex answers the capacity lower bound capLB(tg): the minimum
// cost of buying at least K·tg participation rounds from the bids
// qualified at tg, with the last bid bought fractionally. Qualification
// includes the window-fit constraint a + c − 1 ≤ T̂_g (see
// auctionContext.rebuild), so every qualified bid delivers its full c
// rounds within the horizon; any feasible cover therefore buys ≥ K·tg
// rounds, and dropping the one-bid-per-client and per-slot structure
// only lowers the minimum — capLB(tg) ≤ OPT(tg) for every tg, including
// candidates the sweep never solved.
//
// The index sorts the ever-qualified bids once by unit price ρ/c; each
// query walks the prefix of that order restricted to enterTg ≤ tg until
// the demand is met. Early exit keeps queries far below O(n) on
// populations with supply to spare.
type capacityIndex struct {
	order []int     // ever-qualified bids, ascending unit price ρ/c
	unit  []float64 // unit price aligned with order
}

func (ax *auctionContext) buildCapacityIndex() *capacityIndex {
	q := ax.qualifiedAt(ax.cfg.T)
	ci := &capacityIndex{
		order: make([]int, len(q)),
		unit:  make([]float64, ax.set.n),
	}
	copy(ci.order, q)
	for _, idx := range q {
		ci.unit[idx] = ax.set.price[idx] / float64(ax.set.rounds[idx])
	}
	slices.SortFunc(ci.order, func(a, b int) int {
		switch ua, ub := ci.unit[a], ci.unit[b]; {
		case ua < ub:
			return -1
		case ua > ub:
			return 1
		}
		return a - b
	})
	return ci
}

// lowerBound returns capLB(tg), or +Inf when the qualified supply cannot
// cover the demand even fractionally.
func (ci *capacityIndex) lowerBound(ax *auctionContext, tg int) float64 {
	demand := ax.cfg.K * tg
	var cost float64
	for _, idx := range ci.order {
		if ax.enterTg[idx] > tg {
			continue
		}
		r := ax.set.rounds[idx]
		if r >= demand {
			cost += ci.unit[idx] * float64(demand)
			return cost
		}
		demand -= r
		cost += ax.set.price[idx]
	}
	return math.Inf(1)
}

// sweepApprox is the approximate counterpart of sweepPar: an adaptive
// coarse pass over the candidate range, refinement around the coarse
// argmin until its immediate neighbours are solved, the optional
// LP-guided tightening and rounding of SolverLPRound, and the
// certificate assembly. It runs sequentially — the coarse set is decided
// online from preceding solves, so there is no independent fan-out;
// RunOptions.Workers still parallelizes the pricing stage afterwards.
func (ax *auctionContext) sweepApprox(ctx context.Context, res *Result, o RunOptions, obsv obs.Observer, now func() time.Time) error {
	t0, T := ax.t0, ax.cfg.T
	wdps := make([]WDPResult, T-t0+1)
	ctrl := newStrideController(wdps, t0, T, o.Stride)
	if err := ax.sweepSegmentMask(ctx, t0, T, wdps, ctrl.pick, obsv, now); err != nil {
		return err
	}
	reduceWDPs(res, wdps)

	// Feasibility parity with the exact sweep: when no coarse candidate
	// is feasible, a feasible T̂_g may still hide in a skipped gap —
	// reporting ErrInfeasible then would diverge from the exact tier on
	// the one outcome callers branch on. Fall back to solving every
	// remaining candidate.
	if !res.Feasible {
		err := ax.sweepSegmentMask(ctx, t0, T, wdps,
			func(tg int) bool { return wdps[tg-t0].Skipped }, obsv, now)
		if err != nil {
			return err
		}
		*res = Result{}
		reduceWDPs(res, wdps)
	}

	// Refinement: bisect the maximal skipped gaps flanking the current
	// argmin — each round solves only the midpoint of each flanking gap
	// (the ascending re-walk replays the incremental ψ_max column, so
	// refined solves are bit-identical to what the exact sweep would have
	// produced at the same T̂_g). A better midpoint moves the argmin and
	// restarts the bisection around it; a worse one halves the gap. The
	// loop ends when the argmin's immediate neighbours are solved; every
	// round solves at least one skipped candidate, so it terminates. The
	// cost curve need not be unimodal — a sharper minimum hiding in a
	// half-gap the bisection discards is exactly what the certificate's
	// per-candidate lower bounds price in.
	refine := func() error {
		for res.Feasible {
			lo, hi := res.Tg, res.Tg
			for lo-1 >= t0 && wdps[lo-1-t0].Skipped {
				lo--
			}
			for hi+1 <= T && wdps[hi+1-t0].Skipped {
				hi++
			}
			if lo == res.Tg && hi == res.Tg {
				return nil
			}
			mids := [2]int{-1, -1}
			if lo < res.Tg {
				mids[0] = (lo + res.Tg - 1) / 2
			}
			if hi > res.Tg {
				mids[1] = (res.Tg + 1 + hi) / 2
			}
			err := ax.sweepSegmentMask(ctx, lo, hi, wdps[lo-t0:hi-t0+1],
				func(tg int) bool { return (tg == mids[0] || tg == mids[1]) && wdps[tg-t0].Skipped }, obsv, now)
			if err != nil {
				return err
			}
			*res = Result{}
			reduceWDPs(res, wdps)
		}
		return nil
	}
	if err := refine(); err != nil {
		return err
	}

	// Certificate tightening: the certificate's minimum runs over the
	// exact A_winner cost of every solved candidate and the capacity
	// bound of every skipped one (see buildCertificate). Skipped
	// candidates where capLB dips far below any real cover — typically
	// large T̂_g, where extra cheap supply qualifies so the fractional
	// knapsack gets cheaper while actual covers get dearer — therefore
	// drag the certified ratio down without being competitive at all.
	// Solving the binding skipped candidate replaces its capacity bound
	// with its exact cost (one ordinary greedy solve, orders of magnitude
	// cheaper than LP-certifying it), so a few targeted solves lift the
	// certificate to the target ratio whenever the dip region is narrow.
	// The budget caps the spend on wide dip regions; the ratio is then
	// reported as achieved. A tightening solve that beats the current
	// selection moves the argmin — re-reduce and re-anchor the bisection
	// around it before continuing.
	ci := ax.buildCapacityIndex()
	for budget := certTightenBudget; budget > 0 && res.Feasible; budget-- {
		arg, bound := -1, math.Inf(1)
		for i := range wdps {
			if !wdps[i].Skipped {
				continue
			}
			if b := ci.lowerBound(ax, t0+i); b < bound {
				arg, bound = i, b
			}
		}
		if arg < 0 || bound >= res.Cost/certTargetRatio {
			break // certified at the target (or nothing left to lift)
		}
		err := ax.sweepSegmentMask(ctx, t0+arg, t0+arg, wdps[arg:arg+1],
			func(int) bool { return true }, obsv, now)
		if err != nil {
			return err
		}
		if wdps[arg].Feasible && wdps[arg].Cost < res.Cost {
			*res = Result{}
			reduceWDPs(res, wdps)
			if err := refine(); err != nil {
				return err
			}
		}
	}

	// SolverLPRound: solve the column-generation LP relaxation at the
	// selected candidate and round its fractional solution to a feasible
	// cover, adopted when it beats the greedy one — the adopted cost then
	// IS the selected candidate's certificate contribution, below the
	// exact sweep's. Without a hook the tier degrades to the
	// coarse-to-fine certificate (documented for direct core callers; the
	// facade, batch scheduler and market daemon always install one).
	var lpConverged bool
	if o.Solver == SolverLPRound && o.LP != nil && res.Feasible {
		seed := wdps[res.Tg-t0]
		out := o.LP.CertifyWDP(ax.set, ax.qualifiedAt(res.Tg), res.Tg, ax.cfg, seed)
		if out.Valid {
			lpConverged = out.Converged
			if rounded, ok := ax.roundLPCover(res.Tg, out.Columns, seed); ok && rounded.Cost < seed.Cost {
				wdps[res.Tg-t0] = rounded
				res.Winners = rounded.Winners
				res.Cost = rounded.Cost
			}
		}
	}

	res.Cert = ax.buildCertificate(o.Solver, res, wdps, ci, lpConverged)
	if obsv != nil && res.Cert != nil {
		obsv.Observe(obs.Event{
			Kind: obs.EvCertificateComputed, Tg: res.Tg, Round: res.Cert.Solved,
			Client: -1, Bid: -1, Value: res.Cert.Ratio, OK: res.Feasible,
			Label: o.Solver.String(),
		})
	}
	return nil
}

// certTargetRatio is the certified ratio the tightening loop drives the
// certificate toward: once every skipped candidate's capacity bound sits
// at or above Result.Cost / certTargetRatio, no further solves are spent.
// certTightenBudget caps the targeted solves; on workloads whose capLB
// dip region is wider than the budget, the achieved (larger) ratio is
// reported honestly instead.
const (
	certTargetRatio   = 1.05
	certTightenBudget = 8
)

// buildCertificate assembles the certificate's lower bound on the EXACT
// SWEEP's cost — min over every candidate T̂_g of the A_winner cost at
// that T̂_g, the value SolverExact returns. Every solved feasible
// candidate contributes its exact cost (approximate-tier solves are
// bit-identical to the exact sweep's, and an adopted LP-rounded cover
// only contributes a smaller, still-valid value); a solved infeasible
// candidate contributes nothing (the exact sweep has no cover there
// either); a skipped candidate contributes capLB(tg) ≤ OPT(tg), which
// lower-bounds its A_winner cost whenever one exists.
func (ax *auctionContext) buildCertificate(solver Solver, res *Result, wdps []WDPResult, ci *capacityIndex, lpConverged bool) *Certificate {
	if !res.Feasible {
		return nil
	}
	t0 := ax.t0
	lb := math.Inf(1)
	solved := 0
	for i := range wdps {
		var b float64
		switch {
		case wdps[i].Skipped:
			b = ci.lowerBound(ax, t0+i)
		case wdps[i].Feasible:
			solved++
			b = wdps[i].Cost
		default:
			solved++
			continue
		}
		if b < lb {
			lb = b
		}
	}
	cert := &Certificate{
		Solver:     solver,
		LowerBound: lb,
		Ratio:      math.Inf(1),
		Solved:     solved,
		Candidates: len(wdps),
		Converged:  lpConverged,
	}
	if lb > 0 && !math.IsInf(lb, 1) {
		cert.Ratio = res.Cost / lb
	}
	return cert
}

// roundLPCover rounds a fractional LP solution at tg to a feasible
// integral cover: columns are taken in descending fractional value (ties
// by bid index), at most one per client, skipping columns that add no
// still-needed coverage; any residual demand is bought by the greedy
// solver on the remaining clients with the rounded coverage pre-committed
// (solveOnce with base coverage — the mid-session-repair machinery reused
// as the rounding completer). ok is false when no complete cover results.
//
// Rounded winners carry Payment = Price: an LP-guided winner has no
// in-greedy Algorithm 3 critical value, and paying the claimed price is
// individually rational by construction — the same fallback
// exactCriticalPayment applies to winners that only win through sibling
// interaction. Greedy completion winners keep their critical payments,
// and RuleExactCritical re-prices the whole selected set as usual; see
// the DESIGN.md approximation notes for the incentive accounting.
func (ax *auctionContext) roundLPCover(tg int, cols []LPColumn, seed WDPResult) (WDPResult, bool) {
	if len(cols) == 0 {
		return WDPResult{}, false
	}
	set, cfg := ax.set, ax.cfg
	order := make([]int, 0, len(cols))
	for i, c := range cols {
		if c.Value > 1e-9 && len(c.Slots) > 0 && c.Bid >= 0 && c.Bid < set.n {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		switch va, vb := cols[a].Value, cols[b].Value; {
		case va > vb:
			return -1
		case va < vb:
			return 1
		}
		return cols[a].Bid - cols[b].Bid
	})
	gamma := make([]int, tg)
	used := make(map[int]bool)
	var winners []Winner
	var cost float64
	for _, i := range order {
		c := cols[i]
		cli := set.client[c.Bid]
		if used[cli] {
			continue
		}
		adds := false
		for _, t := range c.Slots {
			if t >= 1 && t <= tg && gamma[t-1] < cfg.K {
				adds = true
				break
			}
		}
		if !adds {
			continue
		}
		used[cli] = true
		slots := make([]int, len(c.Slots))
		copy(slots, c.Slots)
		for _, t := range slots {
			if t >= 1 && t <= tg {
				gamma[t-1]++
			}
		}
		price := set.price[c.Bid]
		winners = append(winners, Winner{
			BidIndex: c.Bid,
			Bid:      set.Bid(c.Bid),
			Slots:    slots,
			Payment:  price,
			AvgCost:  price / float64(len(slots)),
		})
		cost += price
	}
	short := false
	for t := 0; t < tg; t++ {
		if gamma[t] < cfg.K {
			short = true
			break
		}
	}
	if short {
		qualified := ax.qualifiedAt(tg)
		residualQ := make([]int, 0, len(qualified))
		for _, idx := range qualified {
			if !used[set.client[idx]] {
				residualQ = append(residualQ, idx)
			}
		}
		resid := solveOnce(set, residualQ, tg, cfg, gamma)
		if !resid.Feasible {
			return WDPResult{}, false
		}
		winners = append(winners, resid.Winners...)
		cost += resid.Cost
	}
	if len(winners) == 0 {
		return WDPResult{}, false
	}
	// The Lemma 5 dual is an instance certificate of the greedy run at
	// tg, valid as a lower bound on OPT(tg) regardless of which primal
	// cover is reported — keep the seed's.
	return WDPResult{Tg: tg, Feasible: true, Cost: cost, Winners: winners, Dual: seed.Dual, Rounds: seed.Rounds}, true
}
