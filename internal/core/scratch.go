package core

import "sync"

// wdpScratch is the reusable allocation arena of one A_winner run. The
// seed solver allocated its entire working state — membership maps,
// slot indices, heaps, dual accumulators — afresh for every SolveWDP
// call, i.e. O(I·J) allocations per candidate T̂_g. The scratch arena
// turns all of that into flat slices that persist across calls (via a
// sync.Pool), so a feasible solve only allocates what escapes into its
// result: one winner list and one copy of their schedules, instead of
// O(I·J).
//
// Correct reuse relies on every field being (re)initialized by
// wdpScratch.begin (and, for a full solve, init) before it is read:
// gamma, the filled-slot prefix sums and the φ/ψ accumulators are reset
// for t ∈ [1, tg], and the candidate set C is a fresh stamp written at
// exactly the qualified bid indices, so marks left at any index by an
// earlier run never read as members. The class heads and the initial
// candidate order are the one exception: their owner — a sweep segment,
// a pricing pass or a one-off solve — folds the heads at its start
// (resetClasses), its first run orders them, and a sweep segment carries
// both across its T̂_g. Nothing is cleared on release.
type wdpScratch struct {
	// state is the embedded solver state, reused so a solve performs no
	// per-call wdpState allocation.
	state wdpState

	// Indexed by global iteration t−1; capacity grows to the largest tg
	// seen. filledPrefix has one more entry (index t, see wdpState).
	gamma                            []int
	phiMax, phiMin, phiPrime, psiMax []float64
	filledPrefix                     []int

	// sweepPsi is the incrementally maintained ψ_max column of one sweep
	// segment (see sweepSegment); it outlives individual solves, which
	// borrow prefixes of it read-only.
	sweepPsi []float64

	// stamp marks the candidate set C of the current run: bid i is in C
	// exactly when stamp[i] == gen (see nextGen). Indexed by bid index;
	// capacity grows to the largest bid slice seen.
	stamp []uint32
	gen   uint32

	// Representative-schedule buffers (see repSchedule), and the tight
	// dual's descending η order with its prefix sums (see
	// tightDualObjective).
	cand, avail, full []int
	etaOrder          []int
	etaTop            []float64

	// Class selection state (see classsel.go). clsInit keeps the first-
	// qualified head position per class row, with −1 meaning untouched,
	// and clsTouched lists the touched classes in first-qualified order;
	// both are folded by their owner (resetClasses, foldClasses), and
	// resetting restores exactly the touched entries, so the reset is
	// O(touched) across pool reuse. clsOrder is the owner's initial
	// candidate order — one entry per touched class with a positive
	// starting marginal, keyed at its first qualified member, in (key,
	// bid) order — built by the first run after resetClasses (clsOrdered
	// then set) and carried like the heads; clsFresh queues the classes
	// whose head a later fold set or lowered, for the next run to re-key
	// and merge (orderClasses). Per run: clsCur holds the head cursors,
	// clsHeap the entries re-keyed or re-queued during the run, keptCls
	// the payment peek's restore buffer and spare the lazy heap S of
	// unselected qualified siblings of earlier winners.
	clsInit, clsCur []int
	clsTouched      []int
	clsOrder        []classEntry
	clsFresh        []classEntry
	clsOrdered      bool
	clsHeap, spare  classHeap
	keptCls         []classEntry

	// winners is the winner list of the current run, appended to by
	// selectWinnerClass, and sched holds its schedules: each winner's
	// Slots, then its covered subset, in selection order (see
	// representativeSchedule). A feasible WDP copies both out once at
	// exact length (solveWDP), so its Result shares schedule memory with
	// no other WDP's. begin truncates both; releaseScratch clears the
	// winner list.
	winners []Winner
	sched   []int
}

var scratchPool = sync.Pool{New: func() any { return new(wdpScratch) }}

// acquireScratch returns a scratch arena sized for nBids bids and a
// horizon of tg iterations. Pair with releaseScratch.
func acquireScratch(nBids, tg int) *wdpScratch {
	sc := scratchPool.Get().(*wdpScratch)
	sc.ensure(nBids, tg)
	return sc
}

// releaseScratch returns the arena to the pool. References held by the
// embedded state and the winner list are dropped so pooled memory cannot
// pin a caller's bids or results.
func releaseScratch(sc *wdpScratch) {
	sc.state = wdpState{}
	clear(sc.winners[:cap(sc.winners)])
	sc.winners = sc.winners[:0]
	scratchPool.Put(sc)
}

// ensure grows the arena to the requested dimensions, preserving any
// capacity already acquired.
func (sc *wdpScratch) ensure(nBids, tg int) {
	if len(sc.stamp) < nBids {
		sc.stamp = make([]uint32, nBids)
	}
	if len(sc.gamma) < tg {
		sc.gamma = make([]int, tg)
		sc.phiMax = make([]float64, tg)
		sc.phiMin = make([]float64, tg)
		sc.phiPrime = make([]float64, tg)
		sc.psiMax = make([]float64, tg)
		sc.sweepPsi = make([]float64, tg)
		sc.filledPrefix = make([]int, tg+1)
	}
}

// nextGen starts a run's candidate set: it returns a fresh stamp that no
// index of the stamp column holds yet. Stamps only grow, and 0 — a new
// column's value and the mark take leaves on a selected client — is never
// handed out; on wrap-around the column is cleared once.
func (sc *wdpScratch) nextGen() uint32 {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.stamp)
		sc.gen = 1
	}
	return sc.gen
}

// resetClasses starts the class heads of cls folded over bids: every
// clsInit entry back at the −1 sentinel, clsTouched empty and no initial
// order, then foldClasses; the owner's first run builds the order. Fresh
// arrays start at the sentinel; otherwise exactly the previous owner's
// touched entries are restored.
func (sc *wdpScratch) resetClasses(cls *classIndex, bids []int) {
	if n := cls.n; len(sc.clsInit) < n {
		sc.clsInit = make([]int, n)
		for i := range sc.clsInit {
			sc.clsInit[i] = -1
		}
		sc.clsCur = make([]int, n)
	} else {
		for _, c := range sc.clsTouched {
			sc.clsInit[c] = -1
		}
	}
	sc.clsTouched = sc.clsTouched[:0]
	sc.clsOrder, sc.clsOrdered = sc.clsOrder[:0], false
	sc.clsFresh = sc.clsFresh[:0]
	sc.foldClasses(cls, bids)
}
