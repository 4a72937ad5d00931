package core

import (
	"math"
	"slices"
	"sort"

	"github.com/fedauction/afl/internal/stats"
)

// solveEnv carries optional precomputed structure into solveWDP. A zero
// solveEnv means "build everything per solve" — the fully general
// standalone path, valid for arbitrary qualified sets. The sweep and the
// held-out pricing runs attach the auction context's shared structure
// instead:
//
//   - slotStart/slotElems, when non-nil, are the context's full-horizon
//     slot CSR (see auctionContext.slotStart). Per-solve slot-index
//     construction then collapses to tg row-header assignments. Requires
//     qualified ⊆ {i : enterTg[i] ≤ T}, which holds for every context- or
//     probe-derived qualified set.
//   - psi, when non-nil, is the externally maintained ψ_max column for
//     slots [1, len(psi)] with len(psi) ≥ tg: psi[t-1] is the maximum
//     bidding price among qualified bids whose clipped window contains t.
//     The sweep maintains it incrementally across ascending T̂_g
//     (ScheduleLeastCovered only — see sweepSegment); float max over a
//     set is order-independent, so the replayed column is bit-identical
//     to the per-solve accumulation it replaces.
//   - classes + enterTg, when non-nil, engage the class-based selection
//     fast path (see classsel.go): the candidate heap holds one entry per
//     availability-window shape class instead of one per bid, with
//     bit-identical selection order. The class heads come from the
//     scratch arena, which the sweep segment keeps current for the
//     qualified set (resetClasses, foldClasses). Only the sweep attaches
//     them — pricing's held-out runs leave one bid out of the candidate
//     heap and repair pre-commits coverage (base != nil), so both run the
//     fully general per-bid heaps.
type solveEnv struct {
	slotStart, slotElems []int
	psi                  []float64
	classes              *classIndex
	enterTg              []int
}

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
// scratch (reused across the T̂_g sweep) and optional precomputed
// structure in env.
//
// base, when non-nil, pre-commits base[t-1] units of coverage to
// iteration t before the greedy starts — the residual market of a
// mid-session repair, where surviving winners already cover part of the
// demand. The greedy then only buys the missing coverage; payments are
// critical values in that residual market. base is read-only; nil keeps
// the original empty-market behaviour bit-for-bit.
func solveWDP(set *BidSet, qualified []int, tg int, cfg Config, sc *wdpScratch, base []int, env solveEnv) WDPResult {
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
	w := sc.init(set, qualified, tg, cfg, base, env)
	target := cfg.K * tg
	if w.cls != nil {
		for w.covered < target {
			ce, ok := w.popValidClass()
			if !ok {
				return res // not enough supply: this WDP is infeasible
			}
			w.selectWinnerClass(ce)
			res.Rounds++
		}
	} else {
		for w.covered < target {
			e, ok := w.popValid(&sc.heapC, w.inC)
			if !ok {
				return res // not enough supply: this WDP is infeasible
			}
			w.selectWinner(e)
			res.Rounds++
		}
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

// wdpState is the mutable state of one A_winner run. All of its storage
// is backed by a wdpScratch arena; only result data (winners, schedules,
// duals) is freshly allocated.
type wdpState struct {
	set       *BidSet
	qualified []int
	tg        int
	cfg       Config
	sc        *wdpScratch

	// gamma[t-1] is γ_t, the number of clients scheduled at iteration t.
	gamma []int
	// covered is R(S) = Σ_t min(γ_t, K).
	covered int
	// m[idx] is the number of still-available (γ_t < K) iterations inside
	// bid idx's effective window; the bid's marginal utility is
	// R = min(c, m). m is valid only at qualified bid indices.
	m []int
	// slotBids[t-1] lists the bids whose effective slot range contains t,
	// so m can be decremented when t fills up. Rows are either scratch-
	// owned per-solve lists of qualified bids, or (env path) borrowed
	// subslices of the context's full-horizon CSR — the latter also carry
	// not-yet-qualified bids, whose m entries are dead (never read).
	slotBids [][]int

	// inC / inG are membership flags for the candidate set C and the grand
	// set G of Algorithm 2, valid at qualified bid indices. C drops every
	// bid of a winning client; G drops only the selected schedule.
	// (The per-bid selection heaps live in sc.heapC / sc.heapG: entries
	// carry a snapshot of m; a popped entry whose snapshot is stale is
	// re-keyed and reinserted — average cost only grows as slots fill, so
	// the lazy strategy preserves exact greedy order. The class path keeps
	// one class heap for C and reads G's best off the winner and the
	// spare siblings, so it never writes inG.)
	inC, inG []bool

	winners []Winner

	// Dual bookkeeping (lines 9, 11-12 and 16-23 of Algorithm 2).
	// phiMax[t-1] = η_φ(t) = max_l φ(t,l) over selected schedules.
	// phiMin[t-1] = min_l φ(t,l) over selected schedules.
	// phiPrime[t-1] = min over rounds of φ(t, l^{i#})' for the best
	// unselected schedule of each round.
	phiMax, phiMin, phiPrime []float64
	// psiMax[t-1] = ψ_max^t, the maximum bidding price among qualified
	// bids whose window contains t. Either accumulated during init or
	// borrowed read-only from env.psi.
	psiMax []float64

	// Class-path state (nil / unused on the per-bid path; see
	// classsel.go). cls is the population's shape-class index, enterTg
	// the qualification entry points for member and sibling scans, cur
	// the per-class head cursors into C, and filledPrefix[t] the number
	// of filled (γ = K) slots in [1, t] — the class-uniform m source.
	cls          *classIndex
	enterTg      []int
	cur          []int
	filledPrefix []int
}

// init resets the arena for one solve and builds the initial A_winner
// state: slot indices, marginal-utility counters, membership flags and
// the selection heaps (C and G per bid, or the class heap). It touches
// exactly the state the solve will read, which is what makes pooled
// reuse safe without any clearing on release.
func (sc *wdpScratch) init(set *BidSet, qualified []int, tg int, cfg Config, base []int, env solveEnv) *wdpState {
	w := sc.begin(set, qualified, tg, cfg, base, env)
	w.inG = sc.inG
	w.phiMax = sc.phiMax[:tg]
	w.phiMin = sc.phiMin[:tg]
	w.phiPrime = sc.phiPrime[:tg]
	w.psiMax = sc.psiMax[:tg]
	extPsi := env.psi != nil
	if extPsi {
		w.psiMax = env.psi[:tg]
	}
	for t := 0; t < tg; t++ {
		w.phiMax[t] = 0
		w.phiMin[t] = math.Inf(1)
		w.phiPrime[t] = math.Inf(1)
		if !extPsi {
			w.psiMax[t] = 0
		}
	}
	sc.heapG = sc.heapG[:0]
	// The class path replaces the per-bid heaps, m bookkeeping and G
	// membership with class-level structure (see classsel.go); the C
	// flags and any per-solve ψ accumulation stay per-bid.
	classes := env.classes != nil && base == nil
	for _, idx := range qualified {
		if !extPsi {
			lo, hi := w.windowOf(idx)
			p := set.price[idx]
			for t := lo; t <= hi; t++ {
				if p > w.psiMax[t-1] {
					w.psiMax[t-1] = p
				}
			}
		}
		w.inC[idx] = true
		if classes {
			continue
		}
		w.inG[idx] = true
		e := w.admit(idx, base, env.slotStart != nil)
		sc.heapC = append(sc.heapC, e)
		sc.heapG = append(sc.heapG, e)
	}
	if classes {
		w.initClasses(env)
	} else {
		sc.heapC.init()
		sc.heapG.init()
	}
	return w
}

// begin resets the allocation state every greedy run shares — coverage
// (pre-committed from base), the slot-index rows and an empty candidate
// heap — and leaves the per-bid entries to the caller: init for a full
// solve, pricer.heldOut for a pricing replay.
func (sc *wdpScratch) begin(set *BidSet, qualified []int, tg int, cfg Config, base []int, env solveEnv) *wdpState {
	w := &sc.state
	*w = wdpState{
		set:       set,
		qualified: qualified,
		tg:        tg,
		cfg:       cfg,
		sc:        sc,
		gamma:     sc.gamma[:tg],
		m:         sc.m,
		inC:       sc.inC,
	}
	// Owned rows and borrowed CSR rows live in separate scratch arrays:
	// sc.slotBids rows are append-grown and reset with [:0], which must
	// never alias the context's immutable slotElems storage.
	extSlots := env.slotStart != nil
	if extSlots {
		w.slotBids = sc.slotRows[:tg]
	} else {
		w.slotBids = sc.slotBids[:tg]
	}
	for t := 0; t < tg; t++ {
		g := 0
		if base != nil {
			g = base[t]
		}
		w.gamma[t] = g
		if g >= cfg.K {
			w.covered += cfg.K
		} else {
			w.covered += g
		}
		if extSlots {
			w.slotBids[t] = env.slotElems[env.slotStart[t]:env.slotStart[t+1]]
		} else {
			w.slotBids[t] = w.slotBids[t][:0]
		}
	}
	sc.heapC = sc.heapC[:0]
	return w
}

// admit enters qualified bid idx into the per-bid allocation state: its
// m count and, unless the slot rows are borrowed from the context's CSR
// (extSlots), its slot-index rows. It returns the bid's candidate-heap
// entry.
func (w *wdpState) admit(idx int, base []int, extSlots bool) heapEntry {
	// m counts the still-available iterations the bid's representative
	// schedule can draw from: the whole window under the paper's
	// least-covered rule, only the fixed earliest-fit slots otherwise.
	lo, shi := w.slotRangeOf(idx)
	if base == nil {
		w.m[idx] = shi - lo + 1
	} else {
		// Pre-committed coverage consumes slot capacity before the
		// greedy starts: m counts only the still-open iterations.
		n := 0
		for t := lo; t <= shi; t++ {
			if w.gamma[t-1] < w.cfg.K {
				n++
			}
		}
		w.m[idx] = n
	}
	if !extSlots {
		for t := lo; t <= shi; t++ {
			w.slotBids[t-1] = append(w.slotBids[t-1], idx)
		}
	}
	return w.entryFor(idx)
}

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

// marginal returns the utility gain R_il(S) of the bid's representative
// schedule. Under the paper's least-covered rule the schedule takes the
// c_ij smallest-γ iterations of the window; available iterations
// (γ_t < K) sort before full ones, so the gain is min(c_ij, m). Under
// earliest-fit the slot set is fixed and the gain is exactly the number
// of its slots still available.
func (w *wdpState) marginal(idx int) int {
	m := w.m[idx]
	if w.cfg.ScheduleRule == ScheduleEarliest {
		return m
	}
	if r := w.set.rounds[idx]; r < m {
		return r
	}
	return m
}

func (w *wdpState) entryFor(idx int) heapEntry {
	r := w.marginal(idx)
	key := math.Inf(1)
	if r > 0 {
		key = w.set.price[idx] / float64(r)
	}
	return heapEntry{key: key, bid: idx, mSnap: w.m[idx]}
}

// popValid pops the minimum-average-cost entry of h whose membership flag
// is set and whose m snapshot is current, lazily re-keying stale entries.
func (w *wdpState) popValid(h *entryHeap, in []bool) (heapEntry, bool) {
	for h.Len() > 0 {
		e := h.pop()
		if !in[e.bid] {
			continue
		}
		if e.mSnap != w.m[e.bid] {
			if w.marginal(e.bid) > 0 {
				h.push(w.entryFor(e.bid))
			}
			continue
		}
		if w.marginal(e.bid) == 0 {
			continue
		}
		return e, true
	}
	return heapEntry{}, false
}

// peekValid returns the minimum valid entry of h not rejected by skip,
// restoring every entry it inspected. It is used for the critical-value
// payment (second-smallest average cost in C) and for the best unselected
// schedule (i#, l#) in G.
func (w *wdpState) peekValid(h *entryHeap, in []bool, skip func(bid int) bool) (heapEntry, bool) {
	kept := w.sc.kept[:0]
	var found heapEntry
	ok := false
	for h.Len() > 0 {
		e, popped := w.popValid(h, in)
		if !popped {
			break
		}
		if skip != nil && skip(e.bid) {
			kept = append(kept, e)
			continue
		}
		found, ok = e, true
		kept = append(kept, e)
		break
	}
	for _, e := range kept {
		h.push(e)
	}
	w.sc.kept = kept[:0]
	return found, ok
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

// selectWinner performs lines 9-14 of Algorithm 2 for the popped minimum
// entry e: payment, dual recording, set updates, and coverage updates.
func (w *wdpState) selectWinner(e heapEntry) {
	idx := e.bid
	slots, avail := w.representativeSchedule(idx)
	r := len(avail) // == marginal(idx) by construction
	phi := w.set.price[idx] / float64(r)

	payment := w.criticalPayment(idx, r)

	// Record φ(t, l*) on the newly covered iterations (line 9).
	for _, t := range avail {
		if phi > w.phiMax[t-1] {
			w.phiMax[t-1] = phi
		}
		if phi < w.phiMin[t-1] {
			w.phiMin[t-1] = phi
		}
	}

	// Lines 11-12: record the best schedule in the grand set G, which at
	// this point still includes the selected schedule itself.
	if ge, ok := w.peekValid(&w.sc.heapG, w.inG, nil); ok {
		gr := w.marginal(ge.bid)
		gphi := w.set.price[ge.bid] / float64(gr)
		for _, t := range w.repAvailable(ge.bid) {
			if gphi < w.phiPrime[t-1] {
				w.phiPrime[t-1] = gphi
			}
		}
	}

	w.winners = append(w.winners, Winner{
		BidIndex: idx,
		Bid:      w.set.Bid(idx),
		Slots:    slots,
		Payment:  payment,
		AvgCost:  phi,
		covered:  avail,
		phi:      phi,
	})

	// Line 14: G drops only the selected schedule; take drops the whole
	// client from C and covers the schedule's slots.
	w.inG[idx] = false
	w.take(idx, slots)
}

// take commits bid idx with its representative schedule slots (in any
// order) to the allocation: C drops every bid of the winning client
// (line 13 of Algorithm 2) and coverage grows over slots, shrinking m for
// every bid whose slot range holds an iteration that fills up. It is the
// allocation half of selectWinner, shared with the held-out pricing run
// (see pricer.heldOut), which needs nothing of a selection beyond it.
func (w *wdpState) take(idx int, slots []int) {
	for _, sib := range w.set.siblings(idx) {
		w.inC[sib] = false
	}
	for _, t := range slots {
		if w.gamma[t-1] < w.cfg.K {
			w.covered++
		}
		w.gamma[t-1]++
		if w.gamma[t-1] == w.cfg.K {
			for _, other := range w.slotBids[t-1] {
				w.m[other]--
			}
		}
	}
}

// criticalPayment implements A_payment (Algorithm 3): the winner is paid
// its marginal utility times the second-smallest average cost among the
// remaining candidates. With Config.ExcludeOwnBids, the winner's own other
// bids cannot be the critical schedule. When no competitor remains the
// winner is paid its own bid.
func (w *wdpState) criticalPayment(idx, r int) float64 {
	cli := w.set.client[idx]
	skip := func(other int) bool {
		if other == idx {
			return true
		}
		return w.cfg.ExcludeOwnBids && w.set.client[other] == cli
	}
	// The winner's entry has already been popped from heapC, but its
	// sibling bids (same client) may remain and are skipped per the rule.
	if ce, ok := w.peekValid(&w.sc.heapC, w.inC, skip); ok {
		critAvg := w.set.price[ce.bid] / float64(w.marginal(ce.bid))
		return float64(r) * critAvg
	}
	return w.set.price[idx]
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
// On the class path the constraint is memoized per class: the window
// sum is shared by every member of a shape class, and the minimizing
// member is the one with minimum price — the first qualified member in
// the class's (price, bid) order, clsInit. Float min is exact and
// order-independent, so the class-wise minimum equals the per-bid minimum
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
	if cls := w.cls; cls != nil {
		for _, c := range w.sc.clsTouched {
			minPrice := w.set.price[cls.members[cls.memberStart[c]+w.sc.clsInit[c]]]
			scale = w.tightScale(scale, cls.lo[c], cls.hi[c], cls.r[c], minPrice)
		}
	} else {
		for _, idx := range w.qualified {
			scale = w.tightScale(scale, w.set.start[idx], w.set.end[idx], w.set.rounds[idx], w.set.price[idx])
		}
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

// heapEntry is one lazily keyed candidate in the greedy selection heaps.
type heapEntry struct {
	key   float64 // average cost ρ / R at push time
	bid   int     // index into the auction's bid slice
	mSnap int     // m value at push time; staleness marker
}

// before reports whether e sorts before o in the greedy's selection
// order: lower average cost first, ties to the lower bid index.
func (e heapEntry) before(o heapEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.bid < o.bid
}

// entryHeap is a min-heap of heapEntry ordered by (key, bid).
type entryHeap []heapEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(a, b int) bool { return h[a].before(h[b]) }
func (h entryHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }

// The typed heap operations below replicate container/heap verbatim on
// the concrete element type. heap.Push/heap.Pop box every heapEntry in an
// interface — one allocation per call, the dominant allocator of the whole
// sweep — and the lazy re-keying in popValid makes pops and re-pushes the
// hot path. The element movement is identical to container/heap's, so the
// heap layout, and with it every pop order, is bit-for-bit unchanged.

func (h *entryHeap) init() {
	n := h.Len()
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *entryHeap) push(e heapEntry) {
	*h = append(*h, e)
	h.up(h.Len() - 1)
}

func (h *entryHeap) pop() heapEntry {
	n := h.Len() - 1
	h.Swap(0, n)
	h.down(0, n)
	old := *h
	e := old[n]
	*h = old[:n]
	return e
}

func (h *entryHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func (h *entryHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.Less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		i = j
	}
}
