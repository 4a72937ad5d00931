package core

import (
	"math"
	"slices"
	"sort"

	"github.com/fedauction/afl/internal/stats"
)

// SolveWDP runs A_winner (Algorithm 2) on one winner-determination problem:
// given the qualified bid indices for a fixed number of global iterations
// tg, it greedily selects schedules with minimum average cost until every
// iteration t ∈ [1, tg] has cfg.K participants, computes critical-value
// payments (Algorithm 3), and assembles the dual certificate of Lemma 5.
//
// bids is the full bid slice of the auction; qualified indexes into it.
// The function never mutates bids or qualified. It is SolveWDPSet on the
// compiled rows (compilation is exact, so results are bit-identical to
// pre-columnar builds); sweep and batch callers avoid the per-call
// compile by solving through an Engine or a shared BidSet.
func SolveWDP(bids []Bid, qualified []int, tg int, cfg Config) WDPResult {
	return SolveWDPSet(CompileBids(bids), qualified, tg, cfg)
}

// solveWDP is the engine behind SolveWDP: the same greedy, payments and
// dual bookkeeping, operating on the columnar BidSet with caller-provided
// scratch. sc must carry class heads folded over exactly qualified (see
// resetClasses): a sweep segment carries them across its ascending T̂_g,
// and a one-off solve folds its own (solveOnce).
//
// base, when non-nil, pre-commits base[t-1] units of coverage to
// iteration t before the greedy starts — the residual market of a
// mid-session repair, where surviving winners already cover part of the
// demand. The greedy then only buys the missing coverage; payments are
// critical values in that residual market. base is read-only; nil keeps
// the original empty-market behaviour bit-for-bit.
//
// psi, when non-nil, is the externally maintained ψ_max column for slots
// [1, len(psi)] with len(psi) ≥ tg: psi[t-1] is the maximum bidding price
// among qualified bids whose clipped window contains t. The sweep
// maintains it incrementally across ascending T̂_g (ScheduleLeastCovered
// only — see sweepSegment); float max over a set is order-independent, so
// the replayed column is bit-identical to the per-solve accumulation that
// a nil psi selects.
func solveWDP(set *BidSet, qualified []int, tg int, cfg Config, sc *wdpScratch, base []int, psi []float64) WDPResult {
	res := WDPResult{Tg: tg}
	if tg < 1 || len(qualified) == 0 {
		return res
	}
	if cfg.K > math.MaxInt/tg {
		// K·tg overflows int: demand this large can never be covered by
		// a validated bid population, so the WDP is infeasible. (The
		// pre-guard seed code wrapped the target negative and declared
		// an empty selection feasible.)
		return res
	}
	w := sc.init(set, qualified, tg, cfg, base, psi)
	target := cfg.K * tg
	for w.covered < target {
		ce, ok := w.popValidClass()
		if !ok {
			return res // not enough supply: this WDP is infeasible
		}
		w.selectWinnerClass(ce)
		res.Rounds++
	}
	res.Feasible = true
	res.Winners = w.winners
	for _, win := range w.winners {
		res.Cost += win.Bid.Price
	}
	res.Dual = w.finalizeDual(cfg.K)
	// Winners carry the Algorithm 3 payments computed in-greedy. Rules
	// that post-process payments (RulePayBid, RuleExactCritical) are
	// applied lazily by the caller — once, on the WDP whose payments are
	// actually used — via applyPaymentRule or priceWinners.
	return res
}

// solveOnce is one standalone solve on a pooled arena: it folds the class
// heads over qualified, like a sweep segment of a single T̂_g, and
// accumulates the ψ_max column per solve.
func solveOnce(set *BidSet, qualified []int, tg int, cfg Config, base []int) WDPResult {
	sc := acquireScratch(set.n, tg)
	defer releaseScratch(sc)
	sc.resetClasses(set.classes(), qualified)
	return solveWDP(set, qualified, tg, cfg, sc, base, nil)
}

// wdpState is the mutable state of one A_winner run. All of its storage
// is backed by a wdpScratch arena; only result data (winners, schedules,
// duals) is freshly allocated.
type wdpState struct {
	set *BidSet
	tg  int
	cfg Config
	sc  *wdpScratch

	// gamma[t-1] is γ_t, the number of clients scheduled at iteration t.
	gamma []int
	// covered is R(S) = Σ_t min(γ_t, K).
	covered int

	// gen is the run's stamp of the candidate set C of Algorithm 2 (see
	// inC): the qualified bids whose client has not been selected yet.
	// held is the bid a held-out pricing run leaves out of selection, or
	// −1: it stays in C, so its client's membership and its class marginal
	// remain readable, but no class head ever lands on it.
	gen  uint32
	held int

	winners []Winner

	// Dual bookkeeping (lines 9, 11-12 and 16-23 of Algorithm 2).
	// phiMax[t-1] = η_φ(t) = max_l φ(t,l) over selected schedules.
	// phiMin[t-1] = min_l φ(t,l) over selected schedules.
	// phiPrime[t-1] = min over rounds of φ(t, l^{i#})' for the best
	// unselected schedule of each round.
	phiMax, phiMin, phiPrime []float64
	// psiMax[t-1] = ψ_max^t, the maximum bidding price among qualified
	// bids whose window contains t. Either accumulated during init or
	// borrowed read-only from the sweep's column.
	psiMax []float64

	// Class selection state (see classsel.go): the population's shape-
	// class index, the per-class head cursors into C, and filledPrefix[t],
	// the number of filled (γ = K) slots in [1, t] — the class-uniform m
	// source.
	cls          *classIndex
	cur          []int
	filledPrefix []int
}

// init prepares one full solve: the allocation state of begin plus the
// dual accumulators and the ψ_max column (borrowed from psi, or
// accumulated over qualified when psi is nil).
func (sc *wdpScratch) init(set *BidSet, qualified []int, tg int, cfg Config, base []int, psi []float64) *wdpState {
	w := sc.begin(set, qualified, tg, cfg, base, -1)
	w.phiMax = sc.phiMax[:tg]
	w.phiMin = sc.phiMin[:tg]
	w.phiPrime = sc.phiPrime[:tg]
	for t := 0; t < tg; t++ {
		w.phiMax[t] = 0
		w.phiMin[t] = math.Inf(1)
		w.phiPrime[t] = math.Inf(1)
	}
	if psi != nil {
		w.psiMax = psi[:tg]
		return w
	}
	w.psiMax = sc.psiMax[:tg]
	for t := range w.psiMax {
		w.psiMax[t] = 0
	}
	for _, idx := range qualified {
		lo, hi := w.windowOf(idx)
		p := set.price[idx]
		for t := lo; t <= hi; t++ {
			if p > w.psiMax[t-1] {
				w.psiMax[t-1] = p
			}
		}
	}
	return w
}

// begin resets the allocation state every greedy run shares: coverage and
// the filled-slot prefix sums, both pre-committed from base; C stamped
// over exactly qualified; and the candidate heap over the class heads the
// arena carries, with held (−1 for none) left out of selection. It
// touches exactly the state the run will read, which is what makes pooled
// reuse safe without any clearing on release. init adds the dual
// bookkeeping of a full solve; pricer.heldOut needs nothing more.
func (sc *wdpScratch) begin(set *BidSet, qualified []int, tg int, cfg Config, base []int, held int) *wdpState {
	w := &sc.state
	*w = wdpState{
		set:          set,
		tg:           tg,
		cfg:          cfg,
		sc:           sc,
		gamma:        sc.gamma[:tg],
		gen:          sc.nextGen(),
		held:         held,
		cls:          set.classes(),
		cur:          sc.clsCur,
		filledPrefix: sc.filledPrefix[:tg+1],
	}
	w.filledPrefix[0] = 0
	for t := 1; t <= tg; t++ {
		g, filled := 0, 0
		if base != nil {
			g = base[t-1]
		}
		w.gamma[t-1] = g
		if g >= cfg.K {
			w.covered += cfg.K
			filled = 1
		} else {
			w.covered += g
		}
		w.filledPrefix[t] = w.filledPrefix[t-1] + filled
	}
	for _, idx := range qualified {
		sc.stamp[idx] = w.gen
	}
	w.initClasses()
	return w
}

// inC reports whether bid b is in the candidate set C: qualified for this
// run, and its client not yet selected.
func (w *wdpState) inC(b int) bool { return w.sc.stamp[b] == w.gen }

// candidate is the membership test of every class-head scan: b is in C
// and is not the held-out bid.
func (w *wdpState) candidate(b int) bool { return w.inC(b) && b != w.held }

// windowOf returns bid idx's effective availability window [lo, hi]
// clipped to the WDP horizon.
func (w *wdpState) windowOf(idx int) (lo, hi int) {
	hi = w.set.end[idx]
	if hi > w.tg {
		hi = w.tg
	}
	return w.set.start[idx], hi
}

// slotRangeOf returns the iterations a bid's representative schedule draws
// from: the whole clipped window under ScheduleLeastCovered, the fixed
// first c_ij iterations under ScheduleEarliest.
func (w *wdpState) slotRangeOf(idx int) (lo, hi int) {
	lo, hi = w.windowOf(idx)
	if w.cfg.ScheduleRule == ScheduleEarliest && lo+w.set.rounds[idx]-1 < hi {
		hi = lo + w.set.rounds[idx] - 1
	}
	return lo, hi
}

// repCandidates computes the bid's representative schedule l_ij — the
// c_ij iterations with the smallest coverage count γ_t inside the
// effective window, ties broken by iteration index — into buf, in
// least-covered-first order.
func (w *wdpState) repCandidates(idx int, buf []int) []int {
	lo, hi := w.slotRangeOf(idx)
	cand := buf[:0]
	for t := lo; t <= hi; t++ {
		cand = append(cand, t)
	}
	if w.cfg.ScheduleRule != ScheduleEarliest {
		// (γ_t, t) is a total order — no equal keys — so the unstable
		// slices.SortFunc yields the same permutation sort.Slice did,
		// without the reflect-based swapper allocation.
		slices.SortFunc(cand, func(a, b int) int {
			if ga, gb := w.gamma[a-1], w.gamma[b-1]; ga != gb {
				return ga - gb
			}
			return a - b
		})
	}
	if r := w.set.rounds[idx]; len(cand) > r {
		cand = cand[:r]
	}
	return cand
}

// representativeSchedule returns the bid's representative schedule (slots,
// ascending) and the subset F_il that is still available (γ_t < K, in
// least-covered order). Both slices escape into the Winner record, so they
// cannot live in reusable scratch; they are carved out of the scratch's
// append-only slab (allocResult) — one slab allocation per few hundred
// winners instead of one make per winner, which was the dominant
// allocation site of a solve. The candidate work happens in scratch.
func (w *wdpState) representativeSchedule(idx int) (slots, available []int) {
	cand := w.repCandidates(idx, w.sc.cand)
	w.sc.cand = cand[:0]
	navail := 0
	for _, t := range cand {
		if w.gamma[t-1] < w.cfg.K {
			navail++
		}
	}
	buf := w.sc.allocResult(len(cand) + navail)
	slots = buf[:len(cand):len(cand)]
	copy(slots, cand)
	sort.Ints(slots)
	available = buf[len(cand):len(cand)]
	for _, t := range cand {
		if w.gamma[t-1] < w.cfg.K {
			available = append(available, t)
		}
	}
	return slots, available
}

// repAvailable returns the still-available subset of the bid's
// representative schedule using scratch buffers only (nothing escapes);
// it feeds the best-unselected dual bookkeeping.
func (w *wdpState) repAvailable(idx int) []int {
	cand := w.repCandidates(idx, w.sc.cand)
	w.sc.cand = cand[:0]
	avail := w.sc.avail[:0]
	for _, t := range cand {
		if w.gamma[t-1] < w.cfg.K {
			avail = append(avail, t)
		}
	}
	w.sc.avail = avail[:0]
	return avail
}

// take commits bid idx with its representative schedule slots (in any
// order) to the allocation: C drops every bid of the winning client
// (line 13 of Algorithm 2), and coverage grows over slots. A slot filling
// up bumps the filled-prefix suffix, which is what every class m reads.
// It is the commit step of every selection, shared by selectWinnerClass
// and the held-out pricing run (see pricer.heldOut), which needs nothing
// of a selection beyond it.
func (w *wdpState) take(idx int, slots []int) {
	for _, sib := range w.set.siblings(idx) {
		w.sc.stamp[sib] = 0 // never a live stamp (see nextGen)
	}
	for _, t := range slots {
		if w.gamma[t-1] < w.cfg.K {
			w.covered++
		}
		w.gamma[t-1]++
		if w.gamma[t-1] == w.cfg.K {
			for j := t; j <= w.tg; j++ {
				w.filledPrefix[j]++
			}
		}
	}
}

// finalizeDual computes lines 16-23 of Algorithm 2: ω, g(t), λ_il and the
// dual objective D, which lower-bounds the optimal WDP cost.
func (w *wdpState) finalizeDual(k int) Dual {
	tg := w.tg
	d := Dual{
		Tg:         tg,
		G:          make([]float64, tg),
		Lambda:     make(map[int]float64, len(w.winners)),
		HarmonicTg: stats.Harmonic(tg),
	}
	// ω = max_t ψ_max^t / ψ_min^t with ψ_min^t the smallest recorded
	// average cost at t among selected schedules and best-unselected
	// snapshots (line 17-18).
	for t := 0; t < tg; t++ {
		psiMin := math.Min(w.phiMin[t], w.phiPrime[t])
		if math.IsInf(psiMin, 1) || psiMin <= 0 {
			continue
		}
		if ratio := w.psiMax[t] / psiMin; ratio > d.Omega {
			d.Omega = ratio
		}
	}
	if d.Omega < 1 {
		d.Omega = 1
	}
	scale := d.HarmonicTg * d.Omega
	for t := 0; t < tg; t++ {
		d.G[t] = w.phiMax[t] / scale
	}
	var sumLambda float64
	for _, win := range w.winners {
		var l float64
		for _, t := range win.covered {
			l += (w.phiMax[t-1] - win.phi) / scale
		}
		d.Lambda[win.BidIndex] = l
		sumLambda += l
	}
	var sumG float64
	for t := 0; t < tg; t++ {
		sumG += d.G[t]
	}
	d.Objective = float64(k)*sumG - sumLambda
	d.RatioBound = scale
	d.TightObjective = w.tightDualObjective(k)
	return d
}

// tightDualObjective computes the largest uniform scale s at which
// g(t) = s·η_φ(t) stays dual feasible with λ = q = 0 — constraint (8a)
// then reads Σ_{t∈l} g(t) ≤ ρ_il for every feasible schedule l, whose
// binding case per bid is the c_ij largest η_φ values in its window — and
// returns the resulting dual objective s·K·Σ_t η_φ(t).
//
// The constraint is memoized per class: the window sum is shared by every
// member of a shape class, and the minimizing member is the one with
// minimum price — the first qualified member in the class's (price, bid)
// order, clsInit, since the solve's class heads are folded over exactly
// its qualified set. Float min is exact and order-independent, so the
// class-wise minimum equals the minimum over the qualified bids
// bit-for-bit.
func (w *wdpState) tightDualObjective(k int) float64 {
	var sumEta float64
	for t := 0; t < w.tg; t++ {
		sumEta += w.phiMax[t]
	}
	if sumEta <= 0 {
		return 0
	}
	w.orderEta()
	scale := math.Inf(1)
	cls := w.cls
	for _, c := range w.sc.clsTouched {
		minPrice := w.set.price[cls.members[cls.memberStart[c]+w.sc.clsInit[c]]]
		scale = w.tightScale(scale, cls.lo[c], cls.hi[c], cls.r[c], minPrice)
	}
	if math.IsInf(scale, 1) {
		return 0
	}
	return scale * float64(k) * sumEta
}

// orderEta sorts the iterations 1..tg by descending η_φ into sc.etaOrder
// and stores that order's prefix sums in sc.etaTop (etaTop[r] is the sum
// of its first r values, added in order). It is the one sort behind every
// tight-dual constraint of a solve.
func (w *wdpState) orderEta() {
	order := w.sc.etaOrder[:0]
	for t := 1; t <= w.tg; t++ {
		order = append(order, t)
	}
	slices.SortFunc(order, func(a, b int) int {
		switch ea, eb := w.phiMax[a-1], w.phiMax[b-1]; {
		case ea > eb:
			return -1
		case ea < eb:
			return 1
		}
		return a - b
	})
	top := append(w.sc.etaTop[:0], 0)
	var sum float64
	for _, t := range order {
		sum += w.phiMax[t-1]
		top = append(top, sum)
	}
	w.sc.etaOrder, w.sc.etaTop = order, top
}

// tightScale lowers scale to price / worst when that is smaller, where
// worst is the sum of the r largest η_φ over the window [lo, hi] clipped
// to the horizon: the first r in-window entries of the descending order,
// which is the same value sequence, in the same order, as the sorted
// window, so the float sum is bit-identical to sorting the window.
//
// Skip: the i-th largest η of any window is at most the i-th largest
// overall, and float addition rounds monotonically, so worst ≤ etaTop[r];
// for a non-negative price, price / etaTop[r] ≥ scale then means
// price / worst ≥ scale too, and the window cannot lower the scale.
func (w *wdpState) tightScale(scale float64, lo, hi, r int, price float64) float64 {
	if hi > w.tg {
		hi = w.tg
	}
	if r < 1 || hi-lo+1 < r {
		return scale
	}
	if price >= 0 && price/w.sc.etaTop[r] >= scale {
		return scale
	}
	var worst float64
	n := 0
	for _, t := range w.sc.etaOrder {
		if t < lo || t > hi {
			continue
		}
		worst += w.phiMax[t-1]
		if n++; n == r {
			break
		}
	}
	if worst > 0 {
		if s := price / worst; s < scale {
			return s
		}
	}
	return scale
}

// heapEntry is one candidate of the greedy's selection order: a bid and
// its average cost ρ / R.
type heapEntry struct {
	key float64 // average cost ρ / R
	bid int     // index into the auction's bid slice
}

// before reports whether e sorts before o in the greedy's selection
// order: lower average cost first, ties to the lower bid index. It is the
// one selection order, shared by the class heap and the replayed pricing
// probes (see pricer.wins).
func (e heapEntry) before(o heapEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.bid < o.bid
}
