package core

import (
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
// heap therefore needs only one entry per CLASS (its head: the cheapest
// member still in C), not one per bid. For T = 50 there are at
// most Σ_{W=1..50} (51−W)·W = 22 100 shapes, so a million-bid candidate
// set collapses to a few-thousand-entry heap, and the staleness churn of
// a slot filling up (it lowers the marginal of every bid whose window
// contains the slot) costs one lazy re-key per affected class instead of
// one per affected bid.
//
// Exactness. Algorithm 2 selects the minimum (key, bid) over C with
// key = price/marginal. Within a class, marginal is uniform, so the
// class head (first member in (price, bid) order that is still in C)
// attains the class's minimum (key, bid); the global minimum is the
// minimum over class heads, which is what the class heap pops. Stored
// entries only ever underestimate — keys grow as slots fill, and head
// replacement moves to a member with larger (price, bid) — so lazy
// re-keying on pop returns the exact minimum every time. The grand set G
// needs no heap of its own: its best at a pick is the minimum of the
// winner and the spare siblings of earlier winners (see
// selectWinnerClass). The differential suite holds selection order,
// payments and duals bit-identical to the frozen per-bid oracle in
// internal/seedwdp.
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
//
// The heads start from each class's first qualified member (clsInit),
// folded by whoever owns the arena: a sweep segment carries them across
// its ascending T̂_g, a one-off solve folds its own list, and a pricing
// pass folds the market's qualified set once for all of its held-out
// runs. A head that starts before a run's first candidate (a probe
// instance without the winner's siblings, or the held bid) only
// underestimates, which the lazy re-key absorbs.

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

// initClasses builds the candidate heap of one run from the class heads
// the arena carries (see foldClasses): each touched class's cursor back
// at its first qualified member, an empty spare list, and one entry per
// class with a positive marginal. A carried head that is not a candidate
// of this run keys an underestimate, which popValidClass re-keys.
func (w *wdpState) initClasses() {
	sc := w.sc
	cls := w.cls
	sc.spare = sc.spare[:0]
	sc.clsHeap = sc.clsHeap[:0]
	for _, c := range sc.clsTouched {
		pos := sc.clsInit[c]
		w.cur[c] = pos
		head := cls.members[cls.memberStart[c]+pos]
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
//
// A bid whose window starts beyond a solve's horizon (only a caller-
// supplied qualified list can hold one) touches its class like any
// other; the class marginal is 0 there, so it is never selected, never
// critical and never binds the tight dual.
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
// m alone.
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
	return classEntry{heapEntry: heapEntry{key: w.set.price[head] / float64(marg), bid: head}, cls: c, mSnap: m}, true
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

// popValidClass pops the minimum (key, head) class entry whose stored
// key, head and m snapshot all match the current state, lazily re-keying
// stale entries. Classes whose marginal hits zero are dropped: m never
// grows.
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
// after its cursor that is a candidate and not skipped, with the class
// marginal. The cursor is NOT advanced: skipped members remain live
// candidates for later rounds.
func (w *wdpState) classBest(c int, skip func(int) bool) (bid, marg int, ok bool) {
	members := w.classMembers(c)
	for i := w.cur[c]; i < len(members); i++ {
		b := members[i]
		if !w.candidate(b) || skip(b) {
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
// candidate found, no remaining class can beat it, so the result is
// exactly the minimum over every valid, non-skipped member of C.
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
			if top.key > bestKey || (top.key == bestKey && top.bid >= bid) {
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

// selectWinnerClass performs lines 9-14 of Algorithm 2 for the popped
// class entry ce: payment, dual recording, set updates and coverage
// updates (take), after which the winner's class re-enters the candidate
// heap under its new head.
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

	// Lines 11-12: the best schedule in the grand set G, which still
	// includes the selected schedule itself. G = C ∪ S, where S (spare)
	// holds the unselected qualified siblings of earlier winners, and the
	// winner is C's (key, bid)-minimum, so G's best is the minimum of the
	// winner and S. A spare whose marginal hits zero leaves for good
	// (m never grows).
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

	// Lines 13-14: C drops every bid of the winning client (take); G drops
	// only the selected schedule, so the winner's qualified siblings — all
	// still in C, since the client had not won before — join S.
	for _, sib := range w.set.siblings(idx) {
		if sib != idx && w.inC(sib) {
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
	w.take(idx, slots)
	w.requeue(ce.cls)
}

// requeue re-enters class c into the candidate heap under its current
// head, after a selection consumed the class's only entry.
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
// its own bid. The winner's class entry was consumed by the main-loop
// pop, so its remaining members (the winner's siblings and classmates)
// are seeded into the peek explicitly.
func (w *wdpState) criticalPaymentClass(ce classEntry, r int) float64 {
	idx := ce.bid
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

// classEntry is one lazily keyed class in the candidate heap: the head's
// (average cost, bid) and the class m at push time, all three of which
// serve as the staleness marker.
type classEntry struct {
	heapEntry     // head's ρ / R and identity at push time
	cls       int // class row
	mSnap     int // class m at push time
}

// classHeap is a min-heap of classEntry in the greedy's selection order
// (heapEntry.before) over heads. The operations replicate container/heap
// on the concrete type: heap.Push/heap.Pop would box every entry in an
// interface, one allocation per call on the hottest path of a solve.
type classHeap []classEntry

func (h classHeap) Len() int           { return len(h) }
func (h classHeap) Less(a, b int) bool { return h[a].before(h[b].heapEntry) }
func (h classHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }

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
