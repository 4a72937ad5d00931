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
	gamma                    []int
	phiMax, phiMin, phiPrime []float64
	filledPrefix             []int

	// psi is the ψ_max column the arena's owner folds with its class heads
	// (see foldClasses): a sweep segment's across its T̂_g, a one-off
	// solve's at its one T̂_g. It outlives individual solves, which borrow
	// prefixes of it read-only.
	psi []float64

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
	// clsTop the last member position a sweep segment folded into its ψ
	// column (−1 for none), and clsTouched lists the touched classes in
	// first-qualified order; all three are folded by their owner
	// (resetClasses, foldClasses), and resetting restores exactly the
	// touched entries, so the reset is O(touched) across pool reuse.
	// clsOrder is the owner's initial candidate order — one entry per
	// touched class with a positive starting marginal, keyed at its first
	// qualified member, in (key, bid) order — built by the first run after
	// resetClasses (clsOrdered then set) and carried like the heads;
	// clsFresh queues the classes whose head a later fold set or lowered,
	// for the next run to re-key and merge (orderClasses). Per run: clsCur
	// holds the head cursors, clsHeap the entries re-keyed or re-queued
	// during the run, keptCls the payment peek's restore buffer and spare
	// the lazy heap S of unselected qualified siblings of earlier winners.
	clsInit, clsTop []int
	clsCur          []int
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
	// winner list. heldSteps records the held-out run of the winner a
	// pricer holding the arena prices (see pricer.heldOut).
	winners   []Winner
	sched     []int
	heldSteps []heldStep
	// acquired holds runBufs as ensure left them (see runCaps).
	acquired [4]int
}

var scratchPool = sync.Pool{New: func() any { return new(wdpScratch) }}

// acquireScratch returns a scratch arena sized for solves over set at
// horizons up to max(tg, cfg.T) (see ensure). Pair with releaseScratch.
func acquireScratch(set *BidSet, cfg Config, tg int) *wdpScratch {
	sc := scratchPool.Get().(*wdpScratch)
	sc.ensure(set, max(tg, cfg.T))
	return sc
}

// releaseScratch returns the arena to the pool. References held by the
// embedded state and the winner list are dropped so pooled memory cannot
// pin a caller's bids or results.
func releaseScratch(sc *wdpScratch) {
	if set := sc.state.set; set != nil {
		set.cls.caps.note(sc)
	}
	sc.state = wdpState{}
	clear(sc.winners[:cap(sc.winners)])
	sc.winners = sc.winners[:0]
	scratchPool.Put(sc)
}

// ensure grows the arena for set and a horizon of h iterations, keeping
// any capacity already acquired, so that a solve's allocations do not
// depend on the roles its pooled arenas played before: slot-indexed
// buffers get h, class-indexed ones the class count, and the buffers that
// grow with a run's winners the largest capacity any run on set needed.
func (sc *wdpScratch) ensure(set *BidSet, h int) {
	if len(sc.stamp) < set.n {
		sc.stamp = make([]uint32, set.n)
	}
	if len(sc.gamma) < h {
		sc.gamma = make([]int, h)
		sc.phiMax = make([]float64, h)
		sc.phiMin = make([]float64, h)
		sc.phiPrime = make([]float64, h)
		sc.psi = make([]float64, h)
		sc.filledPrefix = make([]int, h+1)
		sc.cand, sc.avail, sc.full = make([]int, 0, h), make([]int, 0, h), make([]int, 0, h)
		sc.etaOrder, sc.etaTop = make([]int, 0, h), make([]float64, 0, h+1)
	}
	if n := set.classes().n; len(sc.clsInit) < n {
		sc.clsInit, sc.clsTop, sc.clsCur = make([]int, n), make([]int, n), make([]int, n)
		for i := range sc.clsInit {
			sc.clsInit[i], sc.clsTop[i] = -1, -1
		}
		sc.clsTouched = make([]int, 0, n)
		sc.clsOrder, sc.clsFresh = make([]classEntry, 0, n), make([]classEntry, 0, n)
		sc.clsHeap = make(classHeap, 0, n)
	}
	set.cls.caps.grow(sc)
}

// runCaps holds, for one population, the largest capacity an arena's
// winner list, schedules, spare heap and pricer steps grew to while a run
// on it held the arena.
type runCaps struct {
	mu  sync.Mutex
	max [4]int
}

// runBufs returns the capacities runCaps tracks.
func (sc *wdpScratch) runBufs() [4]int {
	return [4]int{cap(sc.winners), cap(sc.sched), cap(sc.spare), cap(sc.heldSteps)}
}

// note records the capacities of sc's buffers that grew since grow, so an
// arena that came in larger than the population needs records nothing.
func (rc *runCaps) note(sc *wdpScratch) {
	rc.mu.Lock()
	for i, c := range sc.runBufs() {
		if c != sc.acquired[i] {
			rc.max[i] = max(rc.max[i], c)
		}
	}
	rc.mu.Unlock()
}

// grow sizes sc's buffers to exactly the recorded capacities where they
// are smaller: a rounded-up growth would be recorded in turn and inflate
// every arena that serves the population.
func (rc *runCaps) grow(sc *wdpScratch) {
	rc.mu.Lock()
	m := rc.max
	rc.mu.Unlock()
	sc.winners, sc.sched = growTo(sc.winners, m[0]), growTo(sc.sched, m[1])
	sc.spare, sc.heldSteps = growTo(sc.spare, m[2]), growTo(sc.heldSteps, m[3])
	sc.acquired = sc.runBufs()
}

// growTo returns s emptied, with capacity at least n.
func growTo[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, 0, n)
	}
	return s[:0]
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

// resetClasses starts the class heads of set's class index folded over
// bids, and with h > 0 the ψ_max column psi[:h] from zero: every clsInit
// and clsTop entry back at the −1 sentinel, clsTouched empty and no
// initial order, then foldClasses; the owner's first run builds the
// order. Fresh arrays start at the sentinel (ensure); otherwise exactly
// the previous owner's touched entries are restored.
func (sc *wdpScratch) resetClasses(set *BidSet, bids []int, h int) {
	for _, c := range sc.clsTouched {
		sc.clsInit[c], sc.clsTop[c] = -1, -1
	}
	sc.clsTouched = sc.clsTouched[:0]
	sc.clsOrder, sc.clsOrdered = sc.clsOrder[:0], false
	sc.clsFresh = sc.clsFresh[:0]
	clear(sc.psi[:h])
	sc.foldClasses(set, bids, h)
}
