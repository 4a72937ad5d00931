package core

import "sync"

// wdpScratch is the reusable allocation arena of one A_winner run. The
// seed solver allocated its entire working state — membership maps,
// slot indices, heaps, dual accumulators — afresh for every SolveWDP
// call, i.e. O(I·J) allocations per candidate T̂_g. The scratch arena
// turns all of that into flat slices that persist across calls (via a
// sync.Pool), so a solve only allocates what escapes into its result:
// the winner records, their schedules, and the dual certificate —
// O(winners + T̂_g) instead of O(I·J).
//
// Correct reuse relies on every field being (re)initialized by
// wdpScratch.begin (and, for a full solve, init) before it is read:
// gamma, the filled-slot prefix sums and the φ/ψ accumulators are reset
// for t ∈ [1, tg], and the candidate set C is a fresh stamp written at
// exactly the qualified bid indices, so marks left at any index by an
// earlier run never read as members. The class heads are the one
// exception: their owner — a sweep segment, a pricing pass or a one-off
// solve — folds them at its start (resetClasses), and a sweep segment
// carries them across its T̂_g. Nothing is cleared on release.
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

	// Representative-schedule buffers, and the tight dual's descending η
	// order with its prefix sums (see tightDualObjective).
	cand, avail []int
	etaOrder    []int
	etaTop      []float64

	// Class selection state (see classsel.go), indexed by class row.
	// clsInit keeps the first-qualified head position per class, with −1
	// meaning untouched, and clsTouched lists the touched classes in first-
	// qualified order; both are folded by their owner (resetClasses,
	// foldClasses), and resetting restores exactly the touched entries, so
	// the reset is O(touched) across pool reuse. clsCur holds the per-run
	// head cursors, clsHeap the candidate heap and keptCls its peek
	// restore buffer. spare is the per-solve list S of unselected
	// qualified siblings of earlier winners.
	clsHeap         classHeap
	clsInit, clsCur []int
	clsTouched      []int
	keptCls         []classEntry
	spare           []int

	// chunk backs the winner schedules that escape into Results: slots and
	// covered sub-slices are carved append-only out of one slab instead of
	// one make per winner — the dominant allocation site of a solve.
	// Carved regions are never reused (the offset only advances, and a
	// fresh slab replaces an exhausted one), so escaping sub-slices stay
	// valid for the life of their Result; capacities are clamped so an
	// append on a Result slice copies out instead of stomping a neighbour.
	chunk    []int
	chunkOff int
}

// resultChunkInts is the slab size of the winner-schedule allocator:
// 32 KiB of ints, a few hundred winner schedules per slab at typical
// window widths.
const resultChunkInts = 4096

// allocResult carves n ints off the current slab, starting a fresh slab
// when the remainder is too small. The returned slice has capacity
// exactly n.
func (sc *wdpScratch) allocResult(n int) []int {
	if len(sc.chunk)-sc.chunkOff < n {
		size := resultChunkInts
		if n > size {
			size = n
		}
		sc.chunk = make([]int, size)
		sc.chunkOff = 0
	}
	buf := sc.chunk[sc.chunkOff : sc.chunkOff+n : sc.chunkOff+n]
	sc.chunkOff += n
	return buf
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
// embedded state are dropped so pooled memory cannot pin a caller's
// bids or results.
func releaseScratch(sc *wdpScratch) {
	sc.state = wdpState{}
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
// clsInit entry back at the −1 sentinel and clsTouched empty, then
// foldClasses. Fresh arrays start at the sentinel; otherwise exactly the
// previous owner's touched entries are restored.
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
	sc.foldClasses(cls, bids)
}
