package core

import (
	"cmp"
	"math"
	"slices"

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
// scratch. sc must carry class heads and a ψ_max column of at least tg
// slots folded over exactly qualified (see resetClasses): a sweep segment
// carries both, with the initial candidate order built on the heads,
// across its ascending T̂_g, and a one-off solve folds its own
// (solveOnce). psi[t-1] is then the maximum bidding price among qualified
// bids whose clipped window contains t.
//
// base, when non-nil, pre-commits base[t-1] units of coverage to
// iteration t before the greedy starts — the residual market of a
// mid-session repair, where surviving winners already cover part of the
// demand. The greedy then only buys the missing coverage; payments are
// critical values in that residual market. base is read-only; nil keeps
// the original empty-market behaviour bit-for-bit.
func solveWDP(set *BidSet, qualified []int, tg int, cfg Config, sc *wdpScratch, base []int) WDPResult {
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
	w := sc.init(set, qualified, tg, cfg, base)
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
	if n := len(sc.winners); n > 0 {
		// One exact-length copy per feasible WDP of the arena's winner
		// list and one of its schedules, which the copied winners are
		// repointed into in selection order.
		res.Winners = make([]Winner, n)
		copy(res.Winners, sc.winners)
		sched := make([]int, len(sc.sched))
		copy(sched, sc.sched)
		for i := range res.Winners {
			win := &res.Winners[i]
			ns, nc := len(win.Slots), len(win.covered)
			win.Slots, win.covered = sched[:ns:ns], sched[ns:ns+nc:ns+nc]
			sched = sched[ns+nc:]
		}
	}
	for _, win := range res.Winners {
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
// heads and the ψ_max column over qualified, like a sweep segment of a
// single T̂_g, so its run sorts its own initial order.
func solveOnce(set *BidSet, qualified []int, tg int, cfg Config, base []int) WDPResult {
	sc := acquireScratch(set, cfg, tg)
	defer releaseScratch(sc)
	sc.resetClasses(set, qualified, tg)
	return solveWDP(set, qualified, tg, cfg, sc, base)
}

// wdpState is the mutable state of one A_winner run. All of its storage
// is backed by a wdpScratch arena, the winner list and its schedules
// included; only their copies in the result are freshly allocated.
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
	// based reports that the run started from pre-committed base coverage.
	based bool

	// Dual bookkeeping (lines 9, 11-12 and 16-23 of Algorithm 2).
	// phiMax[t-1] = η_φ(t) = max_l φ(t,l) over selected schedules.
	// phiMin[t-1] = min_l φ(t,l) over selected schedules.
	// phiPrime[t-1] = min over rounds of φ(t, l^{i#})' for the best
	// unselected schedule of each round.
	phiMax, phiMin, phiPrime []float64
	// psiMax[t-1] = ψ_max^t, the maximum bidding price among qualified
	// bids whose window contains t, borrowed read-only from the arena's
	// column (wdpScratch.psi).
	psiMax []float64

	// Class selection state (see classsel.go): the population's shape-
	// class index, the per-class head cursors into C, filledPrefix[t],
	// the number of filled (γ = K) slots in [1, t] — the class-uniform m
	// source — and front, the position of the initial order's first
	// entry the run has not consumed (see validTop).
	cls          *classIndex
	cur          []int
	filledPrefix []int
	front        int
}

// init prepares one full solve: the allocation state of begin plus the
// dual accumulators and the owner's ψ_max column.
func (sc *wdpScratch) init(set *BidSet, qualified []int, tg int, cfg Config, base []int) *wdpState {
	w := sc.begin(set, qualified, tg, cfg, base, -1)
	w.phiMax = sc.phiMax[:tg]
	w.phiMin = sc.phiMin[:tg]
	w.phiPrime = sc.phiPrime[:tg]
	for t := 0; t < tg; t++ {
		w.phiMax[t] = 0
		w.phiMin[t] = math.Inf(1)
		w.phiPrime[t] = math.Inf(1)
	}
	w.psiMax = sc.psi[:tg]
	return w
}

// begin resets the allocation state every greedy run shares: coverage and
// the filled-slot prefix sums, both pre-committed from base; C stamped
// over exactly qualified; and the candidate queue over the class heads the
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
		based:        base != nil,
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
	sc.winners, sc.sched = sc.winners[:0], sc.sched[:0]
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

// repSchedule computes bid idx's representative schedule l_ij into
// scratch: slots, the schedule in ascending slot order, and open, its
// subset F_il still open (γ_t < K). Under ScheduleLeastCovered the
// schedule is the c_ij slots of the clipped window with the smallest
// (γ_t, t), and open comes in that least-covered-first order — the order
// Winner.covered keeps, which fixes the float summation order of λ_il.
// Under ScheduleEarliest it is the window's first c_ij slots, in slot
// order. Both slices are valid until the next call.
//
// The window is never sorted whole: open slots precede full ones in
// (γ_t, t) order, so the schedule is a prefix of the open slots, or every
// open slot plus a prefix of the full ones. Only the lists it draws from
// are ordered (sortByCoverage), and one window scan against the
// schedule's (γ_t, t)-largest slot lists it in ascending order.
func (w *wdpState) repSchedule(idx int) (slots, open []int) {
	lo, hi := w.slotRangeOf(idx)
	r, k, gamma := w.set.rounds[idx], w.cfg.K, w.gamma
	sc := w.sc
	slots, open, full := sc.cand[:0], sc.avail[:0], sc.full[:0]
	for t := lo; t <= hi; t++ {
		if gamma[t-1] < k {
			open = append(open, t)
		} else {
			full = append(full, t)
		}
	}
	if w.cfg.ScheduleRule == ScheduleLeastCovered {
		sortByCoverage(open, gamma)
	}
	if hi-lo+1 <= r {
		// The whole range (always under earliest-fit, whose range ends at
		// the c_ij-th slot).
		for t := lo; t <= hi; t++ {
			slots = append(slots, t)
		}
	} else {
		var last int // the schedule's (γ_t, t)-largest slot
		if len(open) >= r {
			open = open[:r]
			last = open[r-1]
		} else {
			sortByCoverage(full, gamma)
			last = full[r-len(open)-1]
		}
		gl := gamma[last-1]
		for t := lo; t <= hi; t++ {
			if g := gamma[t-1]; g < gl || g == gl && t <= last {
				slots = append(slots, t)
			}
		}
	}
	sc.cand, sc.avail, sc.full = slots[:0], open[:0], full[:0]
	return slots, open
}

// sortByCoverage sorts ts, an ascending run of slots, into (γ_t, t)
// order: a stable sort by γ_t. A run of up to shortSortMax slots sorts by
// insertion and a longer one by a stable comparator sort.
func sortByCoverage(ts, gamma []int) {
	if len(ts) > shortSortMax {
		slices.SortStableFunc(ts, func(a, b int) int { return cmp.Compare(gamma[a-1], gamma[b-1]) })
		return
	}
	for i := 1; i < len(ts); i++ {
		t := ts[i]
		g, j := gamma[t-1], i
		for ; j > 0 && gamma[ts[j-1]-1] > g; j-- {
			ts[j] = ts[j-1]
		}
		ts[j] = t
	}
}

// representativeSchedule returns the bid's representative schedule (slots,
// ascending) and the subset F_il that is still available (γ_t < K, in
// least-covered order), appended in that order to the run's schedule
// buffer. Both slices escape into the Winner record; they stay valid for
// the run (growing the buffer leaves them on the old array), and solveWDP
// repoints them into its copy of the buffer.
func (w *wdpState) representativeSchedule(idx int) (slots, available []int) {
	s, open := w.repSchedule(idx)
	n := len(w.sc.sched)
	w.sc.sched = append(append(w.sc.sched, s...), open...)
	return w.sc.sched[n : n+len(s)], w.sc.sched[n+len(s):]
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

// finalizeDual computes lines 16-23 of Algorithm 2: ω, H_{T̂_g} and the
// dual objective D = K·Σ_t g(t) − Σ λ_il, which lower-bounds the optimal
// WDP cost. It sums each g(t) in t order and each λ_il in winner order
// straight into D without keeping either.
func (w *wdpState) finalizeDual(k int) Dual {
	tg := w.tg
	d := Dual{Tg: tg, HarmonicTg: stats.Harmonic(tg)}
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
	var sumLambda float64
	for _, win := range w.sc.winners {
		var l float64
		for _, t := range win.covered {
			l += (w.phiMax[t-1] - win.phi) / scale
		}
		sumLambda += l
	}
	var sumG float64
	for t := 0; t < tg; t++ {
		sumG += w.phiMax[t] / scale
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
// bit-for-bit, over any subset of classes that holds every class able to
// lower it.
//
// A run without base coverage finds that subset on its initial order
// (clsOrder): one entry per class with a positive starting marginal,
// keyed at the class's first qualified member under that marginal, in
// ascending key order. With no base the starting marginal is min(c_ij,
// clipped window), so an entry keyed below c_ij has a window too short to
// constrain anything, and every other key is fl(ρ / c_ij). The walk stops
// at the first key above scale·η_max·tightSlack, and tightScale's skip
// test holds for that class and every later one: with u = 2⁻⁵³ and normal
// floats, etaTop[c_ij] ≤ c_ij·η_max·(1+u)^(c_ij−1), so a key above the
// bound gives fl(ρ / etaTop[c_ij]) ≥ scale·tightSlack/(1+u)^(c_ij+3) ≥
// scale whenever tightSlack − 1 ≥ (c_ij+4)·u, which c_ij ≤ T̂_g ≤
// tightWalkMaxTg keeps (a class with c_ij > T̂_g has no window long
// enough), and keys only grow along the order. The float bounds need
// prices that are finite, non-negative and normal in every product the
// walk forms (classIndex.walkPrices). A set with other prices scans every
// touched class instead, and so does a run with base coverage: its
// starting marginals count only open slots, and under earliest-fit a
// class whose first c_ij slots are full has no entry at all while its
// window can still set the scale.
func (w *wdpState) tightDualObjective(k int) float64 {
	var sumEta float64
	for t := 0; t < w.tg; t++ {
		sumEta += w.phiMax[t]
	}
	if sumEta <= 0 {
		return 0
	}
	w.orderEta()
	var scale float64
	if !w.based && w.cls.walkPrices && w.tg <= tightWalkMaxTg {
		scale = w.tightWalk()
	} else {
		scale = w.tightScan()
	}
	if math.IsInf(scale, 1) {
		return 0
	}
	return scale * float64(k) * sumEta
}

// tightWalk is the tight dual's scale over the initial order, up to the
// first key above the walk's bound (see tightDualObjective).
func (w *wdpState) tightWalk() float64 {
	cls := w.cls
	scale, bound := math.Inf(1), math.Inf(1)
	etaMax := w.sc.etaTop[1]
	for _, e := range w.sc.clsOrder {
		if e.key > bound {
			break
		}
		c := e.cls
		if s := w.tightScale(scale, cls.shape[c], w.set.price[w.firstHead(c)]); s != scale {
			scale, bound = s, s*etaMax*tightSlack
		}
	}
	return scale
}

// tightScan is the tight dual's scale over every touched class.
func (w *wdpState) tightScan() float64 {
	cls := w.cls
	scale := math.Inf(1)
	for _, c := range w.sc.clsTouched {
		scale = w.tightScale(scale, cls.shape[c], w.set.price[w.firstHead(c)])
	}
	return scale
}

// tightSlack is the float margin of the tight dual's walk, 1 + 2⁻²⁹: it
// covers c_ij + 4 roundings for every c_ij up to tightWalkMaxTg.
const tightSlack = 1 + 0x1p-29

// tightWalkMaxTg is the largest horizon the walk's margin covers:
// (T̂_g + 4)·2⁻⁵³ ≤ 2⁻²⁹.
const tightWalkMaxTg = 1<<24 - 4

// orderEta sorts the iterations 1..tg by (descending η_φ, ascending t)
// into sc.etaOrder — by insertion up to shortSortMax iterations, else by
// a comparator sort — and stores that order's prefix sums in sc.etaTop
// (etaTop[r] is the sum of its first r values, added in order). It is the
// one sort behind every tight-dual constraint of a solve.
func (w *wdpState) orderEta() {
	eta := w.phiMax
	order := w.sc.etaOrder[:0]
	for t := 1; t <= w.tg; t++ {
		order = append(order, t)
	}
	if len(order) > shortSortMax {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(eta[b-1], eta[a-1]) })
	} else {
		for i := 1; i < len(order); i++ {
			t := order[i]
			e, j := eta[t-1], i
			for ; j > 0 && eta[order[j-1]-1] < e; j-- {
				order[j] = order[j-1]
			}
			order[j] = t
		}
	}
	top := append(w.sc.etaTop[:0], 0)
	var sum float64
	for _, t := range order {
		sum += w.phiMax[t-1]
		top = append(top, sum)
	}
	w.sc.etaOrder, w.sc.etaTop = order, top
}

// tightScale lowers scale to price / worst when that is smaller, where
// worst is the sum of the r largest η_φ over the window [lo, hi] of shape
// sh clipped to the horizon: the first r in-window entries of the descending order,
// which is the same value sequence, in the same order, as the sorted
// window, so the float sum is bit-identical to sorting the window.
//
// Skip: the i-th largest η of any window is at most the i-th largest
// overall, and float addition rounds monotonically, so worst ≤ etaTop[r];
// for a non-negative price, price / etaTop[r] ≥ scale then means
// price / worst ≥ scale too, and the window cannot lower the scale.
func (w *wdpState) tightScale(scale float64, sh classShape, price float64) float64 {
	lo, hi, r := sh.lo, min(sh.hi, w.tg), sh.r
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
// one selection order, shared by the candidate queue, the spare heap and
// the replayed pricing probes (see pricer.wins).
func (e heapEntry) before(o heapEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.bid < o.bid
}
