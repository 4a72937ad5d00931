package core

import (
	"slices"
	"sync"
)

// Class-based greedy selection: the large-population fast path of the
// T̂_g sweep.
//
// Bids sharing an availability-window shape (start, end, rounds) are
// interchangeable to the greedy except for price: their effective slot
// ranges coincide, so their marginal utilities are equal at every point
// of the run, and the average-cost order within the shape class is
// exactly the (price, bid) order — fixed at compile time. The candidate
// heap therefore needs only one entry per CLASS (its head: the cheapest
// member still in C), not one per bid. For T = 50 there are at
// most Σ_{W=1..50} (51−W)·W = 22 100 shapes, so a million-bid heap
// collapses to a few-thousand-entry heap, and the mass staleness churn
// that dominated per-bid selection (every slot fill invalidates the
// entries of every bid whose window contains the slot) shrinks by the
// same factor: one lazy re-key per affected class instead of one per
// affected bid.
//
// Exactness. The per-bid greedy pops the minimum valid (key, bid) with
// key = price/marginal. Within a class, marginal is uniform, so the
// class head (first member in (price, bid) order that is qualified and
// still in the set) attains the class's minimum (key, bid); the global
// minimum is the minimum over class heads, which is what the class heap
// pops. Stored entries only ever underestimate — keys grow as slots
// fill, and head replacement moves to a member with larger (price, bid)
// — so the same lazy re-key argument as the per-bid heap applies, and
// every pop returns the exact minimum. The grand set G needs no heap of
// its own: its best at a pick is the minimum of the winner and the spare
// siblings of earlier winners (see selectWinnerClass). Selection order,
// payments and duals are bit-identical to the per-bid path; the
// differential suite (seedwdp, eager-serial) and the class/per-bid
// cross-checks lock this in empirically.
//
// The class path is engaged only by the sweep (solveEnv.classes, see
// sweepSegment): pricing's held-out runs leave one bid out of the
// candidate heap, which a class head cannot express, and session repair
// pre-commits coverage (base != nil), so both keep the fully general
// per-bid heaps.

// classHolder caches the lazily built classIndex of one compiled
// population. compile attaches a fresh holder, so engine-pool rebuilds
// invalidate the cache.
type classHolder struct {
	once sync.Once
	idx  classIndex
}

// classes returns the population's shape-class index, building it on
// first use (concurrent sweep segments share one build via the holder's
// Once). It returns nil for a zero BidSet, which was never compiled.
func (s *BidSet) classes() *classIndex {
	h := s.cls
	if h == nil {
		return nil
	}
	h.once.Do(func() { h.idx.build(s) })
	return &h.idx
}

// classIndex groups the population's bids by availability-window shape
// (start, end, rounds), with each class's members sorted by (price, bid)
// — ascending average cost for any shared marginal. Like the sibling
// CSR it covers ALL bids; per-solve qualification is applied by the
// enterTg filter during head scans.
type classIndex struct {
	n int
	// Shape of class c.
	lo, hi, r []int
	// Member CSR: members[memberStart[c]:memberStart[c+1]] lists class
	// c's bids in (price, bid) order.
	memberStart []int
	members     []int
	// classOf[i] is bid i's class row; memberPos[i] its position inside
	// the class's member row.
	classOf, memberPos []int
}

// build derives the index from the compiled columns: shape interning in
// one pass, a counting placement into the member CSR, then one
// (price, bid) sort per class.
func (ci *classIndex) build(s *BidSet) {
	type shape struct{ lo, hi, r int }
	ids := make(map[shape]int)
	ci.classOf = make([]int, s.n)
	for i := 0; i < s.n; i++ {
		sh := shape{s.start[i], s.end[i], s.rounds[i]}
		c, ok := ids[sh]
		if !ok {
			c = len(ids)
			ids[sh] = c
			ci.lo = append(ci.lo, sh.lo)
			ci.hi = append(ci.hi, sh.hi)
			ci.r = append(ci.r, sh.r)
		}
		ci.classOf[i] = c
	}
	ci.n = len(ids)
	ci.memberStart = make([]int, ci.n+1)
	for _, c := range ci.classOf {
		ci.memberStart[c+1]++
	}
	for c := 0; c < ci.n; c++ {
		ci.memberStart[c+1] += ci.memberStart[c]
	}
	ci.members = make([]int, s.n)
	cur := make([]int, ci.n)
	copy(cur, ci.memberStart[:ci.n])
	for i := 0; i < s.n; i++ {
		c := ci.classOf[i]
		ci.members[cur[c]] = i
		cur[c]++
	}
	ci.memberPos = make([]int, s.n)
	for c := 0; c < ci.n; c++ {
		row := ci.members[ci.memberStart[c]:ci.memberStart[c+1]]
		// (price, bid) is a total order (validated prices are finite), so
		// the unstable sort's permutation is deterministic.
		slices.SortFunc(row, func(a, b int) int {
			switch pa, pb := s.price[a], s.price[b]; {
			case pa < pb:
				return -1
			case pa > pb:
				return 1
			}
			return a - b
		})
		for j, b := range row {
			ci.memberPos[b] = j
		}
	}
}

// initClasses builds the class-level selection state for one solve from
// the class heads the sweep segment carries (see foldClasses): zeroed
// filled-slot prefix sums, each touched class's cursor back at its first
// qualified member, an empty spare list and the candidate heap.
func (w *wdpState) initClasses(env solveEnv) {
	sc := w.sc
	cls := env.classes
	fp := sc.filledPrefix[:w.tg+1]
	for i := range fp {
		fp[i] = 0
	}
	w.filledPrefix = fp
	w.cls = cls
	w.enterTg = env.enterTg
	w.cur = sc.clsCur
	sc.spare = sc.spare[:0]
	sc.clsHeap = sc.clsHeap[:0]
	for _, c := range sc.clsTouched {
		pos := sc.clsInit[c]
		w.cur[c] = pos
		head := cls.members[cls.memberStart[c]+pos]
		// A qualified member implies start + rounds − 1 ≤ tg, so the
		// clipped width covers rounds and the class marginal is ≥ 1.
		e, alive := w.classEntryAt(c, head)
		if !alive {
			continue
		}
		sc.clsHeap = append(sc.clsHeap, e)
	}
	sc.clsHeap.init()
}

// foldClasses lowers the carried class heads by newly qualified bids:
// clsInit[c] becomes the smallest member position of class c among the
// bids folded in since resetClasses, and a class enters clsTouched at its
// first qualified member. Qualified sets only grow with T̂_g, so a sweep
// segment folds qualifiedAt(lo) once and then only the bids entering at
// each later T̂_g — the same first-appearance order, and the same minima,
// as a scan of the whole qualified set at every horizon.
func (sc *wdpScratch) foldClasses(cls *classIndex, bids []int) {
	for _, idx := range bids {
		c := cls.classOf[idx]
		p := cls.memberPos[idx]
		if sc.clsInit[c] < 0 {
			sc.clsInit[c] = p
			sc.clsTouched = append(sc.clsTouched, c)
		} else if p < sc.clsInit[c] {
			sc.clsInit[c] = p
		}
	}
}

// classMembers returns class c's member row ((price, bid) ascending).
func (w *wdpState) classMembers(c int) []int {
	return w.cls.members[w.cls.memberStart[c]:w.cls.memberStart[c+1]]
}

// classShi returns the upper end of class c's rule-effective slot range,
// clipped to the solve horizon — the class-uniform analogue of the shi
// computed per bid by the per-bid init.
func (w *wdpState) classShi(c int) int {
	hi := w.cls.hi[c]
	if hi > w.tg {
		hi = w.tg
	}
	if w.cfg.ScheduleRule == ScheduleEarliest {
		if e := w.cls.lo[c] + w.cls.r[c] - 1; e < hi {
			hi = e
		}
	}
	return hi
}

// classM is the class-uniform m: the number of still-open (γ_t < K)
// iterations in the effective slot range, read from the filled-slot
// prefix sums instead of per-bid decrement bookkeeping.
func (w *wdpState) classM(c int) int {
	lo, shi := w.cls.lo[c], w.classShi(c)
	return (shi - lo + 1) - (w.filledPrefix[shi] - w.filledPrefix[lo-1])
}

// classMarginal is the class-uniform marginal utility min(c_ij, m) (m
// alone under earliest-fit), equal to marginal(b) for every member b.
func (w *wdpState) classMarginal(c int) int {
	m := w.classM(c)
	if w.cfg.ScheduleRule == ScheduleEarliest {
		return m
	}
	if r := w.cls.r[c]; r < m {
		return r
	}
	return m
}

// classEntryAt keys class c under its current head and m; alive is false
// when the class's marginal has hit zero (permanent: m only shrinks).
func (w *wdpState) classEntryAt(c, head int) (classEntry, bool) {
	m := w.classM(c)
	marg := m
	if w.cfg.ScheduleRule != ScheduleEarliest {
		if r := w.cls.r[c]; r < marg {
			marg = r
		}
	}
	if marg <= 0 {
		return classEntry{}, false
	}
	return classEntry{key: w.set.price[head] / float64(marg), head: head, cls: c, mSnap: m}, true
}

// classHead advances cur[c] past members that are unqualified at this
// horizon or permanently removed from C and returns the head bid, or −1
// when the class is exhausted. Both skip reasons are permanent within one
// solve, so the cursor only moves forward — O(class size) total
// advancement per solve.
func (w *wdpState) classHead(c int) int {
	members := w.classMembers(c)
	i := w.cur[c]
	for i < len(members) {
		if b := members[i]; w.enterTg[b] <= w.tg && w.inC[b] {
			w.cur[c] = i
			return b
		}
		i++
	}
	w.cur[c] = i
	return -1
}

// popValidClass pops the minimum (key, head) class entry whose stored
// key, head and m snapshot all match the current state, lazily re-keying
// stale entries — the class-level popValid. Classes whose marginal hits
// zero are dropped (m never grows), exactly as the per-bid heap drops
// zero-marginal entries.
func (w *wdpState) popValidClass() (classEntry, bool) {
	h := &w.sc.clsHeap
	for h.Len() > 0 {
		e := h.pop()
		head := w.classHead(e.cls)
		if head < 0 {
			continue
		}
		cme, alive := w.classEntryAt(e.cls, head)
		if !alive {
			continue
		}
		if cme != e {
			h.push(cme)
			continue
		}
		return e, true
	}
	return classEntry{}, false
}

// classBest returns the minimum-(price, bid) member of class c at or
// after its cursor that is qualified, still in C and not skipped, with the
// class marginal. The cursor is NOT advanced: skipped members remain live
// candidates for later rounds.
func (w *wdpState) classBest(c int, skip func(int) bool) (bid, marg int, ok bool) {
	members := w.classMembers(c)
	for i := w.cur[c]; i < len(members); i++ {
		b := members[i]
		if w.enterTg[b] > w.tg || !w.inC[b] {
			continue
		}
		if skip(b) {
			continue
		}
		if mg := w.classMarginal(c); mg > 0 {
			return b, mg, true
		}
		return 0, 0, false
	}
	return 0, 0, false
}

// peekValidClass returns the bid attaining the minimum (key, bid) over
// every valid, non-skipped member of C: the classes in the heap plus the
// seeded class, whose heap entry the caller has already consumed (the
// winner's class during A_payment). All popped entries are restored, so
// the heap is unchanged on return.
//
// Early stop: a stored entry only ever underestimates its class's true
// (key, head), and a class's best non-skipped member is ≥ its head in
// (key, bid), so once the heap top's stored order is ≥ the best
// candidate found, no remaining class can beat it. This returns exactly
// the minimum the per-bid peekValid finds by popping through entries.
func (w *wdpState) peekValidClass(skip func(int) bool, seedCls int) (bid, marg int, ok bool) {
	var bestKey float64
	bid = -1
	if b, mg, found := w.classBest(seedCls, skip); found {
		bid, marg = b, mg
		bestKey = w.set.price[b] / float64(mg)
	}
	h := &w.sc.clsHeap
	kept := w.sc.keptCls[:0]
	for h.Len() > 0 {
		if bid >= 0 {
			top := (*h)[0]
			if top.key > bestKey || (top.key == bestKey && top.head >= bid) {
				break
			}
		}
		e, popped := w.popValidClass()
		if !popped {
			break
		}
		kept = append(kept, e)
		if b, mg, found := w.classBest(e.cls, skip); found {
			key := w.set.price[b] / float64(mg)
			if bid < 0 || key < bestKey || (key == bestKey && b < bid) {
				bid, marg, bestKey = b, mg, key
			}
		}
	}
	for _, e := range kept {
		h.push(e)
	}
	w.sc.keptCls = kept[:0]
	return bid, marg, bid >= 0
}

// selectWinnerClass is selectWinner on the class heap: identical
// payment, dual and coverage semantics, with the per-bid m decrements
// over slot rows replaced by an O(tg) filled-slot prefix bump and the
// winner's class re-keyed back into the candidate heap under its new
// head.
func (w *wdpState) selectWinnerClass(ce classEntry) {
	idx := ce.head
	slots, avail := w.representativeSchedule(idx)
	r := len(avail) // == classMarginal(ce.cls) by construction
	phi := w.set.price[idx] / float64(r)

	payment := w.criticalPaymentClass(ce, r)

	// Record φ(t, l*) on the newly covered iterations (line 9).
	for _, t := range avail {
		if phi > w.phiMax[t-1] {
			w.phiMax[t-1] = phi
		}
		if phi < w.phiMin[t-1] {
			w.phiMin[t-1] = phi
		}
	}

	// Lines 11-12: the best schedule in the grand set G, which still
	// includes the selected schedule itself. G = C ∪ S, where S (spare)
	// holds the unselected qualified siblings of earlier winners, and the
	// winner is C's (key, bid)-minimum, so G's best is the minimum of the
	// winner and S. A spare whose marginal hits zero leaves for good
	// (m never grows), as the per-bid G heap drops it.
	gb, gphi := idx, phi
	live := w.sc.spare[:0]
	for _, s := range w.sc.spare {
		mg := w.classMarginal(w.cls.classOf[s])
		if mg <= 0 {
			continue
		}
		live = append(live, s)
		if key := w.set.price[s] / float64(mg); key < gphi || (key == gphi && s < gb) {
			gb, gphi = s, key
		}
	}
	gavail := avail
	if gb != idx {
		gavail = w.repAvailable(gb)
	}
	for _, t := range gavail {
		if gphi < w.phiPrime[t-1] {
			w.phiPrime[t-1] = gphi
		}
	}

	// Lines 13-14: C drops every bid of the winning client; G drops only
	// the selected schedule, so the winner's qualified siblings join S.
	for _, sib := range w.set.siblings(idx) {
		w.inC[sib] = false
		if sib != idx && w.enterTg[sib] <= w.tg {
			live = append(live, sib)
		}
	}
	w.sc.spare = live

	w.winners = append(w.winners, Winner{
		BidIndex: idx,
		Bid:      w.set.Bid(idx),
		Slots:    slots,
		Payment:  payment,
		AvgCost:  phi,
		covered:  avail,
		phi:      phi,
	})

	// Update coverage; a slot filling up bumps the filled-prefix suffix,
	// which is what every classM reads — no per-bid m bookkeeping.
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

	// The winner's class re-enters the candidate heap under its new head
	// (the main-loop pop consumed its only entry).
	if head := w.classHead(ce.cls); head >= 0 {
		if e, alive := w.classEntryAt(ce.cls, head); alive {
			w.sc.clsHeap.push(e)
		}
	}
}

// criticalPaymentClass is criticalPayment on the class heap. The
// winner's class entry was consumed by the main-loop pop, so its
// remaining members (the winner's siblings and classmates) are seeded
// into the peek explicitly — they are exactly the entries that would
// still sit in a per-bid candidate heap.
func (w *wdpState) criticalPaymentClass(ce classEntry, r int) float64 {
	idx := ce.head
	cli := w.set.client[idx]
	skip := func(other int) bool {
		if other == idx {
			return true
		}
		return w.cfg.ExcludeOwnBids && w.set.client[other] == cli
	}
	if b, mg, ok := w.peekValidClass(skip, ce.cls); ok {
		critAvg := w.set.price[b] / float64(mg)
		return float64(r) * critAvg
	}
	return w.set.price[idx]
}

// classEntry is one lazily keyed class in the class-level selection
// heaps: the head's average cost and identity plus the class m at push
// time, all three of which serve as the staleness marker.
type classEntry struct {
	key   float64 // head's average cost ρ / R at push time
	head  int     // head bid at push time; the (key, bid) tie-break
	cls   int     // class row
	mSnap int     // class m at push time
}

// classHeap is a min-heap of classEntry ordered by (key, head) — the
// same total order the per-bid entryHeap uses, restricted to heads, so
// the two heaps pop the same global minimum. The operations replicate
// container/heap on the concrete type, exactly as entryHeap does.
type classHeap []classEntry

func (h classHeap) Len() int { return len(h) }
func (h classHeap) Less(a, b int) bool {
	if h[a].key != h[b].key {
		return h[a].key < h[b].key
	}
	return h[a].head < h[b].head
}
func (h classHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }

func (h *classHeap) init() {
	n := h.Len()
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *classHeap) push(e classEntry) {
	*h = append(*h, e)
	h.up(h.Len() - 1)
}

func (h *classHeap) pop() classEntry {
	n := h.Len() - 1
	h.Swap(0, n)
	h.down(0, n)
	old := *h
	e := old[n]
	*h = old[:n]
	return e
}

func (h *classHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func (h *classHeap) down(i0, n int) {
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
