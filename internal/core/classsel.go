package core

import (
	"math"
	"slices"
	"sync"
)

// Class-based greedy selection: how A_winner picks.
//
// Bids sharing an availability-window shape (start, end, rounds) are
// interchangeable to the greedy except for price: their effective slot
// ranges coincide, so their marginal utilities are equal at every point
// of the run, and the average-cost order within the shape class is
// exactly the (price, bid) order — fixed at compile time. The candidate
// queue therefore needs only one entry per CLASS (its head: the cheapest
// member still in C), not one per bid. For T = 50 there are at
// most Σ_{W=1..50} (51−W)·W = 22 100 shapes, so a million-bid candidate
// set collapses to a few thousand entries, and the staleness churn of a
// slot filling up (it lowers the marginal of every bid whose window
// contains the slot) costs one lazy re-key per affected class instead of
// one per affected bid.
//
// Exactness. Algorithm 2 selects the minimum (key, bid) over C with
// key = price/marginal. Within a class, marginal is uniform, so the
// class head (first member in (price, bid) order that is still in C)
// attains the class's minimum (key, bid); the global minimum is the
// minimum over class heads. Stored entries only ever underestimate —
// keys grow as slots fill, and head replacement moves to a member with
// larger (price, bid) — so the smallest stored entry, once its head and
// key are confirmed current, is the exact minimum. (key, bid) is the
// whole selection order, so a confirmed entry needs no other staleness
// marker.
//
// The queue has two fronts (see validTop): the run's initial entries,
// one per touched class keyed at its first qualified member and sorted
// by (key, bid) (clsOrder), read from the front; and a heap holding only
// the entries re-keyed or re-queued during the run. Its minimum is
// validated where it sits: a class whose marginal is 0 is dropped before
// its member row is read, a stale head or key is re-keyed (into the heap
// from the list front, sifted down in place at the heap top), and a
// confirmed entry is the minimum. A class read off the list unchanged
// costs no heap operation at all.
//
// The class heads (clsInit: each class's first qualified member) and the
// initial order over them belong to whoever owns the arena. A sweep
// segment carries both across its ascending T̂_g, re-keying only the
// classes whose head an entrant set or lowered, sorting just those and
// merging them into the rest of the previous order; a pricing pass
// builds them once for all of its held-out runs, which share the fold,
// T̂_g and base; a one-off solve builds its own (see orderClasses). A
// head that starts before a run's first candidate (a probe instance
// without the winner's siblings, or the held bid) only underestimates,
// and the validation re-keys it.
//
// The grand set G of Algorithm 2 lines 11-12 is C ∪ S, where S holds the
// unselected qualified siblings of earlier winners, and the winner just
// picked is C's (key, bid)-minimum, so G's best is the minimum of the
// winner and S. S is a lazy (key, bid) heap under the same re-key and
// drop rule (see bestSpare). The differential suite holds selection
// order, payments and duals bit-identical to the frozen per-bid oracle
// in internal/seedwdp.
//
// One greedy serves every caller — the sweep, standalone solves, repair
// and the held-out runs of exact-critical pricing — through three
// inputs:
//
//   - The qualified list. A run stamps C over exactly its qualified
//     indices (wdpScratch.stamp), so any list works, sibling-pruned or
//     not, and the one membership test of a head scan is the stamp.
//   - Base coverage. γ and the filled-slot prefix sums start from the
//     pre-committed coverage; m, the number of open slots in the
//     effective range, stays uniform within a class.
//   - A held bid. A held-out pricing run leaves the winner being priced
//     out of selection: class heads skip it, while it stays in C, so its
//     client's membership and its class marginal stay readable.

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
// CSR it covers ALL bids; per-run qualification is applied by the
// membership stamp during head scans.
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

// initClasses starts the candidate queue of one run: the carried initial
// order brought up to date (orderClasses) and read from its front, an
// empty heap, each touched class's cursor back at its first qualified
// member, and an empty spare heap. A carried head that is not a candidate
// of this run keys an underestimate, which validTop re-keys.
func (w *wdpState) initClasses() {
	sc := w.sc
	w.orderClasses()
	for _, c := range sc.clsTouched {
		w.cur[c] = sc.clsInit[c]
	}
	sc.clsHeap = sc.clsHeap[:0]
	sc.spare = sc.spare[:0]
}

// orderClasses brings the carried initial order (clsOrder) up to the
// class heads: one entry per touched class with a positive starting
// marginal, keyed at its first qualified member, in (key, bid) order.
// The first run after resetClasses keys every touched class and sorts
// them. A later run keys only the classes folded since (clsFresh: heads
// an entrant set or lowered), sorts just those, drops the superseded
// entries of the previous order — exactly those whose bid is no longer
// their class's first qualified member — and merges the two.
//
// The other entries keep their keys. Owners that run at one T̂_g and
// base (a pricing pass, a one-off solve) never fold again. A sweep
// segment has no base, and a class qualified at T̂_g fits its r rounds
// by T̂_g inside its window, so its starting marginal is r under either
// schedule rule: a growing horizon never moves a starting key.
func (w *wdpState) orderClasses() {
	sc := w.sc
	if !sc.clsOrdered {
		order := sc.clsOrder[:0]
		for _, c := range sc.clsTouched {
			if e, alive := w.classEntryAt(c, w.firstHead(c)); alive {
				order = append(order, e)
			}
		}
		slices.SortFunc(order, classEntry.cmp)
		sc.clsOrder, sc.clsOrdered = order, true
		sc.clsFresh = sc.clsFresh[:0]
		return
	}
	if len(sc.clsFresh) == 0 {
		return
	}
	fresh := sc.clsFresh[:0]
	for _, e := range sc.clsFresh {
		if ne, alive := w.classEntryAt(e.cls, w.firstHead(e.cls)); alive {
			fresh = append(fresh, ne)
		}
	}
	slices.SortFunc(fresh, classEntry.cmp)
	// A class folded twice since the last run is keyed twice, identically.
	fresh = slices.Compact(fresh)
	old := sc.clsOrder
	n := 0
	for _, e := range old {
		if e.bid == w.firstHead(e.cls) {
			old[n] = e
			n++
		}
	}
	// Merge from the back, so the kept entries move at most once.
	old = slices.Grow(old[:n], len(fresh))[:n+len(fresh)]
	i, k := n-1, len(old)-1
	for j := len(fresh) - 1; j >= 0; k-- {
		if i >= 0 && fresh[j].before(old[i].heapEntry) {
			old[k] = old[i]
			i--
		} else {
			old[k] = fresh[j]
			j--
		}
	}
	sc.clsOrder = old
	sc.clsFresh = fresh[:0]
}

// foldClasses lowers the carried class heads by newly qualified bids:
// clsInit[c] becomes the smallest member position of class c among the
// bids folded in since resetClasses, and a class enters clsTouched at its
// first qualified member. Qualified sets only grow with T̂_g, so a sweep
// segment folds qualifiedAt(lo) once and then only the bids entering at
// each later T̂_g — the same first-appearance order, and the same minima,
// as a scan of the whole qualified set at every horizon. Once the initial
// order has been built, every class whose head a fold sets or lowers is
// queued in clsFresh for orderClasses to re-key.
//
// A bid whose window starts beyond a solve's horizon (only a caller-
// supplied qualified list can hold one) touches its class like any
// other; the class marginal is 0 there, so it is never selected, never
// critical and never binds the tight dual.
func (sc *wdpScratch) foldClasses(cls *classIndex, bids []int) {
	for _, idx := range bids {
		c := cls.classOf[idx]
		p := cls.memberPos[idx]
		switch {
		case sc.clsInit[c] < 0:
			sc.clsTouched = append(sc.clsTouched, c)
		case p >= sc.clsInit[c]:
			continue
		}
		sc.clsInit[c] = p
		if sc.clsOrdered {
			sc.clsFresh = append(sc.clsFresh, classEntry{cls: c})
		}
	}
}

// firstHead returns class c's first qualified member, the head every run
// of the arena's owner starts from.
func (w *wdpState) firstHead(c int) int {
	return w.cls.members[w.cls.memberStart[c]+w.sc.clsInit[c]]
}

// classMembers returns class c's member row ((price, bid) ascending).
func (w *wdpState) classMembers(c int) []int {
	return w.cls.members[w.cls.memberStart[c]:w.cls.memberStart[c+1]]
}

// classShi returns the upper end of class c's rule-effective slot range,
// clipped to the solve horizon: slotRangeOf's hi for every member.
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
// prefix sums.
func (w *wdpState) classM(c int) int {
	lo, shi := w.cls.lo[c], w.classShi(c)
	if shi < lo {
		return 0 // the window starts beyond the horizon
	}
	return (shi - lo + 1) - (w.filledPrefix[shi] - w.filledPrefix[lo-1])
}

// classMarginal is the class-uniform marginal utility R_il(S) of every
// member's representative schedule: under the paper's least-covered rule
// the schedule takes the c_ij smallest-γ iterations of the window, and
// available iterations (γ_t < K) sort before full ones, so the gain is
// min(c_ij, m); under earliest-fit the slot set is fixed and the gain is
// m alone. It only ever shrinks within a run, so a class whose marginal
// hits zero is dead for the rest of the run.
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

// classEntryAt keys class c under head and the current marginal; alive
// is false when the class's marginal has hit zero.
func (w *wdpState) classEntryAt(c, head int) (classEntry, bool) {
	marg := w.classMarginal(c)
	if marg <= 0 {
		return classEntry{}, false
	}
	return classEntry{heapEntry: heapEntry{key: w.set.price[head] / float64(marg), bid: head}, cls: c}, true
}

// classHead advances cur[c] past members that are not candidates — not
// qualified for this run, removed from C, or held out — and returns the
// head bid, or −1 when the class is exhausted. Every skip reason is
// permanent within one run, so the cursor only moves forward —
// O(class size) total advancement per run.
func (w *wdpState) classHead(c int) int {
	members := w.classMembers(c)
	i := w.cur[c]
	for i < len(members) {
		if b := members[i]; w.candidate(b) {
			w.cur[c] = i
			return b
		}
		i++
	}
	w.cur[c] = i
	return -1
}

// noBound sorts after every entry: keys are finite.
var noBound = heapEntry{key: math.Inf(1), bid: math.MaxInt}

// validTop validates the candidate queue's minimum where it sits and
// returns it, with whether it sits at the list front; ok is false once
// the queue is empty or its smallest stored entry no longer sorts before
// bound. A class whose marginal is 0, or whose members have all left C,
// is dropped (m never grows); a stale head or key is re-keyed — off the
// list front into the heap, or sifted down in place at the heap top. An
// entry whose head and key are current is the exact (key, bid) minimum
// of the candidates, because every other stored entry underestimates its
// class.
func (w *wdpState) validTop(bound heapEntry) (e classEntry, inList, ok bool) {
	order, h := w.sc.clsOrder, &w.sc.clsHeap
	for {
		switch {
		case w.front < len(order) && (len(*h) == 0 || order[w.front].before((*h)[0].heapEntry)):
			e, inList = order[w.front], true
		case len(*h) > 0:
			e, inList = (*h)[0], false
		default:
			return classEntry{}, false, false
		}
		if !e.before(bound) {
			return classEntry{}, false, false
		}
		head := -1
		marg := w.classMarginal(e.cls)
		if marg > 0 {
			head = w.classHead(e.cls)
		}
		if head < 0 {
			w.removeTop(inList)
			continue
		}
		key := w.set.price[head] / float64(marg)
		if head == e.bid && key == e.key {
			return e, inList, true
		}
		e.heapEntry = heapEntry{key: key, bid: head}
		if inList {
			w.front++
			h.push(e)
		} else {
			(*h)[0] = e
			h.down(0, len(*h))
		}
	}
}

// removeTop removes the queue's minimum, which sits at the list front
// when inList is set and at the heap top otherwise.
func (w *wdpState) removeTop(inList bool) {
	if inList {
		w.front++
	} else {
		w.sc.clsHeap.pop()
	}
}

// popValidClass removes and returns the queue's validated minimum: the
// (key, bid)-minimum over every candidate of C.
func (w *wdpState) popValidClass() (classEntry, bool) {
	e, inList, ok := w.validTop(noBound)
	if ok {
		w.removeTop(inList)
	}
	return e, ok
}

// classBest returns the minimum-(price, bid) member of class c at or
// after its cursor that is a candidate and not skipped, keyed under the
// class marginal. The cursor is NOT advanced: skipped members remain
// live candidates for later rounds.
func (w *wdpState) classBest(c int, skip func(int) bool) (heapEntry, bool) {
	members := w.classMembers(c)
	for i := w.cur[c]; i < len(members); i++ {
		b := members[i]
		if !w.candidate(b) || skip(b) {
			continue
		}
		if mg := w.classMarginal(c); mg > 0 {
			return heapEntry{key: w.set.price[b] / float64(mg), bid: b}, true
		}
		return heapEntry{}, false
	}
	return heapEntry{}, false
}

// selectWinnerClass performs lines 9-14 of Algorithm 2 for the popped
// class entry ce: payment, dual recording, set updates and coverage
// updates (take), after which the winner's class re-enters the candidate
// queue's heap under its new head.
func (w *wdpState) selectWinnerClass(ce classEntry) {
	idx := ce.bid
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

	// Lines 11-12: the best schedule in the grand set G = C ∪ S, which
	// still includes the selected schedule itself: the minimum of the
	// winner and S's best.
	gb, gphi := idx, phi
	if s, ok := w.bestSpare(); ok && s.before(heapEntry{key: phi, bid: idx}) {
		gb, gphi = s.bid, s.key
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

	// Lines 13-14: C drops every bid of the winning client (take); G drops
	// only the selected schedule, so the winner's qualified siblings — all
	// still in C, since the client had not won before — join S, keyed
	// before take, which only underestimates.
	for _, sib := range w.set.siblings(idx) {
		if sib == idx || !w.inC(sib) {
			continue
		}
		if e, alive := w.classEntryAt(w.cls.classOf[sib], sib); alive {
			w.sc.spare.push(e)
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
	w.take(idx, slots)
	w.requeue(ce.cls)
}

// bestSpare returns the (key, bid)-minimum of the spare heap S, validated
// where it sits like the candidate queue's: a spare whose marginal hit
// zero leaves for good, and a stale key is re-keyed in place. A spare's
// bid never changes, and its key only grows, so a top whose key is
// current is S's exact minimum.
func (w *wdpState) bestSpare() (heapEntry, bool) {
	h := &w.sc.spare
	for len(*h) > 0 {
		top := &(*h)[0]
		mg := w.classMarginal(top.cls)
		if mg <= 0 {
			h.pop()
			continue
		}
		if key := w.set.price[top.bid] / float64(mg); key != top.key {
			top.key = key
			h.down(0, len(*h))
			continue
		}
		return top.heapEntry, true
	}
	return heapEntry{}, false
}

// requeue re-enters class c into the candidate queue's heap under its
// current head, after a selection consumed the class's only entry.
func (w *wdpState) requeue(c int) {
	if head := w.classHead(c); head >= 0 {
		if e, alive := w.classEntryAt(c, head); alive {
			w.sc.clsHeap.push(e)
		}
	}
}

// criticalPaymentClass implements A_payment (Algorithm 3): the winner is
// paid its marginal utility r times the second-smallest average cost in
// C. With Config.ExcludeOwnBids, the winner's own other bids cannot be
// the critical schedule. When no competitor remains the winner is paid
// its own bid.
//
// The candidate is the minimum of the winner's own class — whose entry
// the main loop consumed, so its remaining members are read directly —
// and the queue's validated top, which is the exact minimum over every
// other class. Only a top whose head is skipped (a sibling, under
// ExcludeOwnBids) is popped: its class's best non-skipped member becomes
// a candidate, the search moves past it, and the popped entries are
// restored on return. The search stops at the first top that no longer
// sorts before the best candidate found.
func (w *wdpState) criticalPaymentClass(ce classEntry, r int) float64 {
	idx := ce.bid
	cli := w.set.client[idx]
	skip := func(other int) bool {
		if other == idx {
			return true
		}
		return w.cfg.ExcludeOwnBids && w.set.client[other] == cli
	}
	best, found := w.classBest(ce.cls, skip)
	if !found {
		best = noBound
	}
	kept := w.sc.keptCls[:0]
	for {
		e, inList, ok := w.validTop(best)
		if !ok {
			break
		}
		if !skip(e.bid) {
			best, found = e.heapEntry, true
			break
		}
		w.removeTop(inList)
		kept = append(kept, e)
		if b, ok := w.classBest(e.cls, skip); ok && b.before(best) {
			best, found = b, true
		}
	}
	for _, e := range kept {
		w.sc.clsHeap.push(e)
	}
	w.sc.keptCls = kept[:0]
	if found {
		return float64(r) * best.key
	}
	return w.set.price[idx]
}

// classEntry is one lazily keyed class of the candidate queue: the
// head's (average cost, bid) when it was keyed, and the class row. The
// spare heap reuses it for one spare bid and its class.
type classEntry struct {
	heapEntry     // head's ρ / R and identity when keyed
	cls       int // class row
}

// cmp orders entries by the greedy's selection order over their heads.
func (e classEntry) cmp(o classEntry) int {
	if e.before(o.heapEntry) {
		return -1
	}
	if o.before(e.heapEntry) {
		return 1
	}
	return 0
}

// classHeap is a min-heap of classEntry in the greedy's selection order
// (heapEntry.before) over heads. The operations replicate container/heap
// on the concrete type: heap.Push/heap.Pop would box every entry in an
// interface, one allocation per call on the hottest path of a solve.
type classHeap []classEntry

func (h classHeap) Len() int           { return len(h) }
func (h classHeap) Less(a, b int) bool { return h[a].before(h[b].heapEntry) }
func (h classHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }

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
