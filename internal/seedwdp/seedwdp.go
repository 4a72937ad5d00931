// Package seedwdp holds the two reference solvers that the incremental
// engine in internal/core is held to. Neither may be used in production
// paths.
//
// The first is a frozen copy of the repository's original ("seed") A_FL
// solver: the map-based SolveWDP, the per-T̂_g re-qualification of the
// seed sweep, and the seed payment rules, exactly as they shipped before
// the incremental WDP engine replaced them in internal/core. It is the
// oracle of the differential-testing harness
// (internal/core/differential_test.go), which asserts the incremental
// engine returns bit-identical winners, schedules, payments and duals on
// hundreds of seeded workloads, and the baseline of BenchmarkSweepSeed,
// which `make bench-core` records beside the incremental paths in
// BENCH_core.txt. Only tests import this package. Because it is a
// differential oracle, that code is intentionally a verbatim
// transliteration of the seed algorithm — do not "improve" it. The only
// deliberate differences are cosmetic: it reuses the exported core types
// Bid and Config, its Winner exports the Covered/Phi dual bookkeeping
// that core keeps unexported, and its Dual stores the dual variables g(t)
// and λ_il beside the embedded core.Dual's scalars, as the seed's did.
// core stores only the scalars; its tests derive g(t) and λ_il from a
// solve and compare them with these.
//
// The second is RunEager, the eager-serial pricing reference: the sweep
// with every candidate T̂_g fully priced, which the lazy pricing stage of
// core must match at the selected T̂_g.
package seedwdp

import (
	"container/heap"
	"math"
	"sort"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/stats"
)

// Winner mirrors core.Winner with the dual bookkeeping exported.
type Winner struct {
	BidIndex int
	Bid      core.Bid
	Slots    []int
	Payment  float64
	AvgCost  float64

	// Covered lists the slots that were still available at selection time
	// (the paper's F_il) and Phi the recorded average cost φ(t,l).
	Covered []int
	Phi     float64
}

// Dual is the seed's dual certificate: core.Dual's scalars and the dual
// variables they were computed from.
type Dual struct {
	core.Dual
	// G holds g(t) for t = 1..Tg at index t-1.
	G []float64
	// Lambda maps a winner's BidIndex to its λ_il value.
	Lambda map[int]float64
}

// WDPResult mirrors core.WDPResult.
type WDPResult struct {
	Tg       int
	Feasible bool
	Cost     float64
	Winners  []Winner
	Dual     Dual
	Rounds   int
}

// Result mirrors core.Result.
type Result struct {
	Feasible bool
	Tg       int
	Cost     float64
	Winners  []Winner
	Dual     Dual
	WDPs     []WDPResult
}

// localIters mirrors the unexported Config.localIters.
func localIters(c core.Config) core.LocalIterFunc {
	if c.LocalIters != nil {
		return c.LocalIters
	}
	return core.PaperLocalIters
}

// MinTg is the seed copy of core.MinTg.
func MinTg(bids []core.Bid) int {
	thetaMin := math.Inf(1)
	for _, b := range bids {
		thetaMin = math.Min(thetaMin, b.Theta)
	}
	if math.IsInf(thetaMin, 1) || thetaMin >= 1 {
		return 1
	}
	t0 := int(math.Ceil(1/(1-thetaMin) - 1e-9))
	if t0 < 1 {
		t0 = 1
	}
	return t0
}

// Qualified is the seed copy of core.Qualified: it re-filters the full
// bid slice for every T̂_g.
func Qualified(bids []core.Bid, tg int, cfg core.Config) []int {
	if tg < 1 {
		return nil
	}
	thetaMax := 1 - 1/float64(tg)
	li := localIters(cfg)
	const eps = 1e-12
	var out []int
	for idx, b := range bids {
		if b.Theta > thetaMax+eps {
			continue
		}
		if cfg.TMax > 0 && b.PerRoundTime(li) > cfg.TMax+eps {
			continue
		}
		if cfg.ReservePrice > 0 && b.Price > cfg.ReservePrice+eps {
			continue
		}
		if b.Start+b.Rounds-1 > tg {
			continue
		}
		out = append(out, idx)
	}
	return out
}

// RunAuction is the seed A_FL sweep (Algorithm 1): an independent
// Qualified + SolveWDP from scratch per candidate T̂_g.
func RunAuction(bids []core.Bid, cfg core.Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := core.ValidateBids(bids, cfg.T, cfg.K); err != nil {
		return Result{}, err
	}
	res := Result{}
	t0 := MinTg(bids)
	for tg := t0; tg <= cfg.T; tg++ {
		qualified := Qualified(bids, tg, cfg)
		wdp := SolveWDP(bids, qualified, tg, cfg)
		res.WDPs = append(res.WDPs, wdp)
		if !wdp.Feasible {
			continue
		}
		if !res.Feasible || wdp.Cost < res.Cost {
			res.Feasible = true
			res.Tg = wdp.Tg
			res.Cost = wdp.Cost
			res.Winners = wdp.Winners
			res.Dual = wdp.Dual
		}
	}
	return res, nil
}

// RunEager is the sweep with eager payment application: every candidate
// T̂_g's WDP is solved and fully priced under cfg.PaymentRule by
// core.Engine.SolveWDP, serially, as the pre-lazification sweep did. The
// differential suite holds the lazy pricing path to it, and
// BenchmarkExactCriticalPricing times it as its eager_reference:
// the selected T̂_g's winners and payments must be bit-identical between
// the two. Ties keep the smallest T̂_g, as in the lazy sweep.
func RunEager(bids []core.Bid, cfg core.Config) (core.Result, error) {
	eng, err := core.NewEngine(bids, cfg)
	if err != nil {
		return core.Result{}, err
	}
	var res core.Result
	for tg := eng.T0(); tg <= cfg.T; tg++ {
		wdp := eng.SolveWDP(tg)
		res.WDPs = append(res.WDPs, wdp)
		if wdp.Feasible && (!res.Feasible || wdp.Cost < res.Cost) {
			res.Feasible, res.Tg, res.Cost = true, wdp.Tg, wdp.Cost
			res.Winners, res.Dual = wdp.Winners, wdp.Dual
		}
	}
	return res, nil
}

// SolveWDP is the seed copy of core.SolveWDP: per-call maps, per-call
// heaps, fresh allocations throughout.
func SolveWDP(bids []core.Bid, qualified []int, tg int, cfg core.Config) WDPResult {
	res := WDPResult{Tg: tg}
	if tg < 1 || len(qualified) == 0 {
		return res
	}
	w := newWDPState(bids, qualified, tg, cfg)
	target := cfg.K * tg
	for w.covered < target {
		e, ok := w.popValid(&w.heapC, w.inC)
		if !ok {
			return res // not enough supply: this WDP is infeasible
		}
		w.selectWinner(e)
		res.Rounds++
	}
	res.Feasible = true
	res.Winners = w.winners
	for _, win := range w.winners {
		res.Cost += win.Bid.Price
	}
	res.Dual = w.finalizeDual(cfg.K)
	applyPaymentRule(bids, qualified, tg, cfg, &res)
	return res
}

// wdpState is the seed's mutable A_winner state (map-based membership,
// per-call heaps).
type wdpState struct {
	bids      []core.Bid
	qualified []int
	tg        int
	cfg       core.Config

	gamma      []int
	covered    int
	m          map[int]int
	slotBids   [][]int
	clientBids map[int][]int

	inC map[int]bool
	inG map[int]bool

	heapC entryHeap
	heapG entryHeap

	winners []Winner

	phiMax, phiMin, phiPrime []float64
	psiMax                   []float64
}

func newWDPState(bids []core.Bid, qualified []int, tg int, cfg core.Config) *wdpState {
	w := &wdpState{
		bids:       bids,
		qualified:  qualified,
		tg:         tg,
		cfg:        cfg,
		gamma:      make([]int, tg),
		m:          make(map[int]int, len(qualified)),
		slotBids:   make([][]int, tg),
		clientBids: make(map[int][]int),
		inC:        make(map[int]bool, len(qualified)),
		inG:        make(map[int]bool, len(qualified)),
		phiMax:     make([]float64, tg),
		phiMin:     make([]float64, tg),
		phiPrime:   make([]float64, tg),
		psiMax:     make([]float64, tg),
	}
	for t := 0; t < tg; t++ {
		w.phiMin[t] = math.Inf(1)
		w.phiPrime[t] = math.Inf(1)
	}
	for _, idx := range qualified {
		b := bids[idx]
		lo, hi := w.window(b)
		for t := lo; t <= hi; t++ {
			if b.Price > w.psiMax[t-1] {
				w.psiMax[t-1] = b.Price
			}
		}
		slo, shi := w.slotRange(b)
		w.m[idx] = shi - slo + 1
		for t := slo; t <= shi; t++ {
			w.slotBids[t-1] = append(w.slotBids[t-1], idx)
		}
		w.clientBids[b.Client] = append(w.clientBids[b.Client], idx)
		w.inC[idx] = true
		w.inG[idx] = true
		e := w.entryFor(idx)
		w.heapC = append(w.heapC, e)
		w.heapG = append(w.heapG, e)
	}
	heap.Init(&w.heapC)
	heap.Init(&w.heapG)
	return w
}

func (w *wdpState) window(b core.Bid) (lo, hi int) {
	hi = b.End
	if hi > w.tg {
		hi = w.tg
	}
	return b.Start, hi
}

func (w *wdpState) slotRange(b core.Bid) (lo, hi int) {
	lo, hi = w.window(b)
	if w.cfg.ScheduleRule == core.ScheduleEarliest && lo+b.Rounds-1 < hi {
		hi = lo + b.Rounds - 1
	}
	return lo, hi
}

func (w *wdpState) marginal(idx int) int {
	m := w.m[idx]
	if w.cfg.ScheduleRule == core.ScheduleEarliest {
		return m
	}
	if r := w.bids[idx].Rounds; r < m {
		return r
	}
	return m
}

func (w *wdpState) entryFor(idx int) heapEntry {
	r := w.marginal(idx)
	key := math.Inf(1)
	if r > 0 {
		key = w.bids[idx].Price / float64(r)
	}
	return heapEntry{key: key, bid: idx, mSnap: w.m[idx]}
}

func (w *wdpState) popValid(h *entryHeap, in map[int]bool) (heapEntry, bool) {
	for h.Len() > 0 {
		e := heap.Pop(h).(heapEntry)
		if !in[e.bid] {
			continue
		}
		if e.mSnap != w.m[e.bid] {
			if w.marginal(e.bid) > 0 {
				heap.Push(h, w.entryFor(e.bid))
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

func (w *wdpState) peekValid(h *entryHeap, in map[int]bool, skip func(bid int) bool) (heapEntry, bool) {
	var kept []heapEntry
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
		heap.Push(h, e)
	}
	return found, ok
}

func (w *wdpState) representativeSchedule(idx int) (slots, available []int) {
	b := w.bids[idx]
	lo, hi := w.slotRange(b)
	cand := make([]int, 0, hi-lo+1)
	for t := lo; t <= hi; t++ {
		cand = append(cand, t)
	}
	if w.cfg.ScheduleRule != core.ScheduleEarliest {
		sort.Slice(cand, func(a, b int) bool {
			ga, gb := w.gamma[cand[a]-1], w.gamma[cand[b]-1]
			if ga != gb {
				return ga < gb
			}
			return cand[a] < cand[b]
		})
	}
	if len(cand) > b.Rounds {
		cand = cand[:b.Rounds]
	}
	slots = cand
	for _, t := range slots {
		if w.gamma[t-1] < w.cfg.K {
			available = append(available, t)
		}
	}
	sort.Ints(slots)
	return slots, available
}

func (w *wdpState) selectWinner(e heapEntry) {
	idx := e.bid
	b := w.bids[idx]
	slots, avail := w.representativeSchedule(idx)
	r := len(avail)
	phi := b.Price / float64(r)

	payment := w.criticalPayment(idx, b, r)

	for _, t := range avail {
		if phi > w.phiMax[t-1] {
			w.phiMax[t-1] = phi
		}
		if phi < w.phiMin[t-1] {
			w.phiMin[t-1] = phi
		}
	}

	if ge, ok := w.peekValid(&w.heapG, w.inG, nil); ok {
		gb := w.bids[ge.bid]
		gr := w.marginal(ge.bid)
		gphi := gb.Price / float64(gr)
		_, gavail := w.representativeSchedule(ge.bid)
		for _, t := range gavail {
			if gphi < w.phiPrime[t-1] {
				w.phiPrime[t-1] = gphi
			}
		}
	}

	for _, sib := range w.clientBids[b.Client] {
		delete(w.inC, sib)
	}
	delete(w.inG, idx)

	w.winners = append(w.winners, Winner{
		BidIndex: idx,
		Bid:      b,
		Slots:    slots,
		Payment:  payment,
		AvgCost:  phi,
		Covered:  avail,
		Phi:      phi,
	})

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

func (w *wdpState) criticalPayment(idx int, b core.Bid, r int) float64 {
	skip := func(other int) bool {
		if other == idx {
			return true
		}
		return w.cfg.ExcludeOwnBids && w.bids[other].Client == b.Client
	}
	if ce, ok := w.peekValid(&w.heapC, w.inC, skip); ok {
		critAvg := w.bids[ce.bid].Price / float64(w.marginal(ce.bid))
		return float64(r) * critAvg
	}
	return b.Price
}

func (w *wdpState) finalizeDual(k int) Dual {
	tg := w.tg
	d := Dual{
		Dual:   core.Dual{Tg: tg, HarmonicTg: stats.Harmonic(tg)},
		G:      make([]float64, tg),
		Lambda: make(map[int]float64, len(w.winners)),
	}
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
		for _, t := range win.Covered {
			l += (w.phiMax[t-1] - win.Phi) / scale
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

func (w *wdpState) tightDualObjective(k int) float64 {
	var sumEta float64
	for t := 0; t < w.tg; t++ {
		sumEta += w.phiMax[t]
	}
	if sumEta <= 0 {
		return 0
	}
	scale := math.Inf(1)
	top := make([]float64, 0, w.tg)
	for _, idx := range w.qualified {
		b := w.bids[idx]
		lo, hi := w.window(b)
		if hi-lo+1 < b.Rounds {
			continue
		}
		top = top[:0]
		for t := lo; t <= hi; t++ {
			top = append(top, w.phiMax[t-1])
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(top)))
		var worst float64
		for i := 0; i < b.Rounds; i++ {
			worst += top[i]
		}
		if worst > 0 {
			if s := b.Price / worst; s < scale {
				scale = s
			}
		}
	}
	if math.IsInf(scale, 1) {
		return 0
	}
	return scale * float64(k) * sumEta
}

// applyPaymentRule is the seed copy of core.applyPaymentRule.
func applyPaymentRule(bids []core.Bid, qualified []int, tg int, cfg core.Config, res *WDPResult) {
	switch cfg.PaymentRule {
	case core.RulePayBid:
		for i := range res.Winners {
			res.Winners[i].Payment = res.Winners[i].Bid.Price
		}
	case core.RuleExactCritical:
		for i := range res.Winners {
			res.Winners[i].Payment = exactCriticalPayment(bids, qualified, tg, cfg, res.Winners[i])
		}
	}
}

// exactCriticalPayment is the seed copy of core.exactCriticalPayment.
func exactCriticalPayment(bids []core.Bid, qualified []int, tg int, cfg core.Config, win Winner) float64 {
	probeCfg := cfg
	probeCfg.PaymentRule = core.RuleCritical
	probeQual := qualified
	if cfg.ExcludeOwnBids {
		probeQual = make([]int, 0, len(qualified))
		for _, idx := range qualified {
			if idx == win.BidIndex || bids[idx].Client != win.Bid.Client {
				probeQual = append(probeQual, idx)
			}
		}
	}
	probe := make([]core.Bid, len(bids))
	wins := func(price float64) bool {
		copy(probe, bids)
		probe[win.BidIndex].Price = price
		res := SolveWDP(probe, probeQual, tg, probeCfg)
		if !res.Feasible {
			return false
		}
		for _, w := range res.Winners {
			if w.BidIndex == win.BidIndex {
				return true
			}
		}
		return false
	}
	lo := win.Bid.Price
	if !wins(lo) {
		return lo
	}
	var hi float64
	if cfg.ReservePrice > 0 {
		if wins(cfg.ReservePrice) {
			return cfg.ReservePrice
		}
		hi = cfg.ReservePrice
	} else {
		hi = lo
		won := true
		for range 48 {
			hi *= 2
			if !wins(hi) {
				won = false
				break
			}
		}
		if won {
			return win.Payment
		}
	}
	for range 64 {
		if hi-lo <= 1e-12*math.Max(1, hi) {
			break
		}
		mid := lo + (hi-lo)/2
		if wins(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// heapEntry / entryHeap are the seed's lazy heap types.
type heapEntry struct {
	key   float64
	bid   int
	mSnap int
}

type entryHeap []heapEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(a, b int) bool {
	if h[a].key != h[b].key {
		return h[a].key < h[b].key
	}
	return h[a].bid < h[b].bid
}
func (h entryHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }

// Push implements heap.Interface.
func (h *entryHeap) Push(x any) { *h = append(*h, x.(heapEntry)) }

// Pop implements heap.Interface.
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
