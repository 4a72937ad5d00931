package core

import "sort"

// auctionContext is the shared immutable per-auction state of the
// incremental WDP engine. It is built once per auction over the columnar
// BidSet and then read by every SolveWDP call of the T̂_g sweep
// (sequentially or from concurrent sweep segments), replacing the seed
// behaviour of re-deriving qualification sets, client groupings and slot
// indices from scratch for each of the T − T_0 + 1 candidate iteration
// counts.
//
// The key observation is that the qualification predicate of Algorithm 1
// line 6 is monotone in T̂_g:
//
//   - θ_ij ≤ 1 − 1/T̂_g becomes easier as T̂_g grows (1 − 1/T̂_g is
//     non-decreasing, and float64 division is correctly rounded, hence
//     weakly monotone, so this holds bit-exactly, not just in ℝ);
//   - a_ij + c_ij − 1 ≤ T̂_g becomes easier as T̂_g grows;
//   - the t_max and reserve-price checks do not depend on T̂_g at all.
//
// A bid therefore has a single entry point enterTg: the smallest T̂_g at
// which it qualifies (or none within [1, T]). Counting-sorting bids by
// (enterTg, index) yields one shared backing array whose prefixes are
// exactly the qualified sets — J_{T̂_g} = qualOrder[:qualCount[T̂_g]] —
// so the sweep performs zero re-filtering and zero per-T̂_g allocation
// for qualification. The same pass derives a full-horizon slot CSR
// (slotStart/slotElems) for the sweep's incremental ψ_max replay, and the
// enterTg column plus qualCount prefix sums drive both that replay and
// the weighted segmentation of the parallel sweep (see run.go /
// parallel.go).
//
// All fields are written only by rebuild and read-only afterwards, which
// is what makes sharing the context across sweep segments safe.
type auctionContext struct {
	set *BidSet
	cfg Config
	// t0 is T_0 = ⌈1/(1−θ_min)⌉, the start of the T̂_g sweep.
	t0 int

	// enterTg[i] is the smallest T̂_g ∈ [1, cfg.T] at which bid i
	// qualifies, or cfg.T+1 when it never does within the horizon.
	enterTg []int
	// qualOrder lists qualifying bid indices sorted by (enterTg, index).
	qualOrder []int
	// qualCount[tg] is |J_{T̂_g}| for tg ∈ [0, cfg.T]; the qualified set
	// for tg is qualOrder[:qualCount[tg]].
	qualCount []int

	// slotStart/slotElems form the full-horizon slot CSR: for iteration
	// t ∈ [1, T], slotElems[slotStart[t-1]:slotStart[t]] lists (ascending)
	// every ever-qualifying bid whose availability window contains t. It
	// feeds only the sweep's ψ_max column under ScheduleLeastCovered (see
	// sweepSegmentMask), which filters each row by enterTg: the row for a
	// new horizon tg yields the slot's maximum over the bids qualified at
	// tg.
	slotStart, slotElems []int

	// cnt is construction scratch for the counting sorts, retained across
	// pool rebuilds.
	cnt []int
}

// newAuctionContext precomputes the shared state for one auction. The set
// must already have passed ValidateBidSet; the context retains (and never
// mutates) it.
func newAuctionContext(set *BidSet, cfg Config) *auctionContext {
	ax := &auctionContext{}
	ax.rebuild(set, cfg)
	return ax
}

// rebuild (re)derives the full context for a new bid population in place,
// reusing whatever slice capacity the receiver already holds. This is the
// engine pool's steady-state path (see AcquireEngineSet): after the first
// few rebuilds of a given shape, qualification costs zero allocations
// beyond what escapes into results. The qualification predicate is
// evaluated with exactly the expressions and tolerances of Qualified, so
// the prefix sets reproduce its qualified sets bit-for-bit (up to the
// documented (enterTg, index) ordering).
func (ax *auctionContext) rebuild(set *BidSet, cfg Config) {
	ax.set = set
	ax.cfg = cfg
	ax.t0 = set.minTg()
	T := cfg.T
	n := set.n
	localIters := cfg.localIters()
	// The tolerance must match Qualified exactly: the prefix sets are
	// required to reproduce its qualified sets bit-for-bit.
	const eps = 1e-12
	never := T + 1
	ax.enterTg = growI(ax.enterTg, n)
	for i := 0; i < n; i++ {
		theta := set.theta[i]
		if cfg.TMax > 0 && localIters(theta)*set.comp[i]+set.comm[i] > cfg.TMax+eps {
			ax.enterTg[i] = never
			continue
		}
		if cfg.ReservePrice > 0 && set.price[i] > cfg.ReservePrice+eps {
			ax.enterTg[i] = never
			continue
		}
		// Smallest tg satisfying the θ constraint, located by binary
		// search over the monotone predicate using the exact float
		// expression of Qualified.
		thetaOK := func(tg int) bool {
			thetaMax := 1 - 1/float64(tg)
			return !(theta > thetaMax+eps)
		}
		if !thetaOK(T) {
			ax.enterTg[i] = never // never qualifies within the horizon
			continue
		}
		enter := sort.Search(T, func(k int) bool { return thetaOK(k + 1) }) + 1
		// The window-fit constraint a_ij + c_ij − 1 ≤ T̂_g.
		if fit := set.start[i] + set.rounds[i] - 1; fit > enter {
			enter = fit
		}
		if enter > T {
			enter = never
		}
		ax.enterTg[i] = enter
	}

	// qualOrder via a counting sort on enterTg. Bids are placed in index
	// order within each enterTg bucket, which is exactly the (enterTg,
	// index) order the historical per-T̂_g entry lists produced.
	cnt := growI(ax.cnt, T+2)
	for i := range cnt {
		cnt[i] = 0
	}
	for i := 0; i < n; i++ {
		cnt[ax.enterTg[i]]++
	}
	ax.qualCount = growI(ax.qualCount, T+1)
	ax.qualCount[0] = 0
	total := 0
	for tg := 1; tg <= T; tg++ {
		c := cnt[tg]
		cnt[tg] = total // becomes the write cursor for bucket tg
		total += c
		ax.qualCount[tg] = total
	}
	ax.qualOrder = growI(ax.qualOrder, total)
	for i := 0; i < n; i++ {
		if e := ax.enterTg[i]; e <= T {
			ax.qualOrder[cnt[e]] = i
			cnt[e]++
		}
	}
	ax.cnt = cnt

	ax.buildSlotCSR()
}

// buildSlotCSR derives the full-horizon slot rows (see the field comment
// on slotStart). Row sizes come from a difference array, so counting is
// O(n + T); filling is O(Σ window lengths).
func (ax *auctionContext) buildSlotCSR() {
	set, T := ax.set, ax.cfg.T
	d := ax.cnt[:T+1] // reuse the counting-sort scratch as a diff array
	for i := range d {
		d[i] = 0
	}
	for i := 0; i < set.n; i++ {
		if ax.enterTg[i] > T {
			continue
		}
		lo, hi := set.start[i], min(set.end[i], T)
		d[lo-1]++
		if hi < T {
			d[hi]--
		}
	}
	ax.slotStart = growI(ax.slotStart, T+1)
	ax.slotStart[0] = 0
	run, total := 0, 0
	for t := 1; t <= T; t++ {
		run += d[t-1]
		total += run
		ax.slotStart[t] = total
	}
	ax.slotElems = growI(ax.slotElems, total)
	// Rewrite the diff array into per-row write cursors; ascending bid
	// order per row falls out of the ascending fill loop.
	for t := 1; t <= T; t++ {
		d[t-1] = ax.slotStart[t-1]
	}
	for i := 0; i < set.n; i++ {
		if ax.enterTg[i] > T {
			continue
		}
		lo, hi := set.start[i], min(set.end[i], T)
		for t := lo; t <= hi; t++ {
			ax.slotElems[d[t-1]] = i
			d[t-1]++
		}
	}
}

// slotRow returns the full-horizon slot row for iteration t ∈ [1, T].
func (ax *auctionContext) slotRow(t int) []int {
	return ax.slotElems[ax.slotStart[t-1]:ax.slotStart[t]]
}

// qualifiedAt returns the qualified bid set J_{T̂_g} as a capped
// read-only prefix of the shared qualification order. The slice must not
// be mutated or appended to by callers; SolveWDP treats it as read-only.
//
// The returned set is Qualified(bids, tg, cfg) up to ordering: entries
// are sorted by (enterTg, index) rather than by index alone. Every
// consumer of a qualified set — heap construction (total order on
// (key, bid)), ψ_max maxima, class-head minima, client pruning and the
// tight-dual minimum — is order-independent, so the two orderings
// produce bit-identical WDP results; the differential harness locks this
// in empirically.
func (ax *auctionContext) qualifiedAt(tg int) []int {
	if tg < 1 {
		return nil
	}
	if tg > ax.cfg.T {
		tg = ax.cfg.T
	}
	n := ax.qualCount[tg]
	return ax.qualOrder[:n:n]
}
