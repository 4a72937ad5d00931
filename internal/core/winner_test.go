package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/fedauction/afl/internal/stats"
)

// exampleBids returns the three-bid instance of the worked example in
// §V-B of the paper: T̂_g = 3, K = 1,
// B1($2,[1,2],1), B2($6,[2,3],2), B3($5,[1,3],2).
func exampleBids() []Bid {
	return []Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
}

func TestSolveWDPPaperExample(t *testing.T) {
	bids := exampleBids()
	cfg := Config{T: 3, K: 1}
	res := SolveWDP(bids, []int{0, 1, 2}, 3, cfg)
	if !res.Feasible {
		t.Fatal("paper example must be feasible")
	}
	if got, want := res.Cost, 7.0; got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
	if len(res.Winners) != 2 {
		t.Fatalf("winners = %d, want 2", len(res.Winners))
	}
	// First iteration selects B1 (avg 2 < 2.5 < 3) at payment
	// R_1·(ρ_3/R_3) = 1·2.5 = 2.5.
	w1 := res.Winners[0]
	if w1.BidIndex != 0 {
		t.Fatalf("first winner = bid %d, want bid 0", w1.BidIndex)
	}
	if got, want := w1.Payment, 2.5; got != want {
		t.Fatalf("B1 payment = %v, want %v", got, want)
	}
	if len(w1.Slots) != 1 || w1.Slots[0] != 1 {
		t.Fatalf("B1 slots = %v, want [1]", w1.Slots)
	}
	// Second iteration selects B3 ({2,3}, avg 2.5 < 3) at payment
	// R_3·(ρ_2/R_2) = 2·3 = 6.
	w2 := res.Winners[1]
	if w2.BidIndex != 2 {
		t.Fatalf("second winner = bid %d, want bid 2", w2.BidIndex)
	}
	if got, want := w2.Payment, 6.0; got != want {
		t.Fatalf("B3 payment = %v, want %v", got, want)
	}
	if len(w2.Slots) != 2 || w2.Slots[0] != 2 || w2.Slots[1] != 3 {
		t.Fatalf("B3 slots = %v, want [2 3]", w2.Slots)
	}
}

func TestSolveWDPInfeasible(t *testing.T) {
	tests := []struct {
		name      string
		bids      []Bid
		qualified []int
		tg        int
		k         int
	}{
		{
			name:      "no qualified bids",
			bids:      exampleBids(),
			qualified: nil,
			tg:        3,
			k:         1,
		},
		{
			name: "uncovered iteration",
			bids: []Bid{
				{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
			},
			qualified: []int{0},
			tg:        3,
			k:         1,
		},
		{
			name: "not enough distinct clients for K",
			bids: []Bid{
				{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
				{Client: 0, Price: 3, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
			},
			qualified: []int{0, 1},
			tg:        2,
			k:         2,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res := SolveWDP(tc.bids, tc.qualified, tc.tg, Config{T: tc.tg, K: tc.k})
			if res.Feasible {
				t.Fatalf("expected infeasible, got cost %v winners %v", res.Cost, res.Winners)
			}
		})
	}
}

// TestSolveWDPBidBeyondHorizon pins what a listed bid whose window starts
// after tg contributes to a standalone solve: nothing. Its marginal is 0,
// so it is never selected and never the critical competitor, and it adds
// nothing to ψ or the tight dual. Here bid 0 is the only bid that can
// cover slot 1, so it is paid its own bid, A_payment's fallback when no
// competitor exists, and the result equals the solve without bid 1.
func TestSolveWDPBidBeyondHorizon(t *testing.T) {
	bids := []Bid{
		{Client: 0, Price: 5, Theta: 0.5, Start: 1, End: 1, Rounds: 1},
		{Client: 1, Price: 1, Theta: 0.5, Start: 3, End: 3, Rounds: 1},
	}
	for _, sched := range []ScheduleRule{ScheduleLeastCovered, ScheduleEarliest} {
		for _, rule := range []PaymentRule{RuleCritical, RuleExactCritical} {
			cfg := Config{T: 3, K: 1, PaymentRule: rule, ScheduleRule: sched}
			res := SolveWDP(bids, []int{0, 1}, 1, cfg)
			if !res.Feasible || len(res.Winners) != 1 || res.Winners[0].BidIndex != 0 {
				t.Fatalf("%v/%v: want bid 0 as the only winner, got feasible=%v winners=%+v", sched, rule, res.Feasible, res.Winners)
			}
			if pay := res.Winners[0].Payment; pay != 5 {
				t.Fatalf("%v/%v: bid 0 paid %v, want its own bid 5", sched, rule, pay)
			}
			if alone := SolveWDP(bids, []int{0}, 1, cfg); !reflect.DeepEqual(res, alone) {
				t.Fatalf("%v/%v: listing bid 1 changed the result:\n%+v\nwithout it:\n%+v", sched, rule, res, alone)
			}
		}
	}
}

// TestCandidateStampWrapAround pins the wrap-around of the candidate
// stamp: when the generation counter wraps, marks left by runs long ago
// must not read as members of C. Bid 1 shares bid 0's class but is not
// listed; its stale mark equals the generation the wrap hands out, and
// read as a member it would be bid 0's critical competitor.
func TestCandidateStampWrapAround(t *testing.T) {
	set := CompileBids([]Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 3, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	})
	qualified := []int{0, 2}
	cfg := Config{T: 3, K: 1}
	want := solveOnce(set, qualified, 3, cfg, nil)
	if !want.Feasible || want.Winners[0].BidIndex != 0 || want.Winners[0].Payment != 2.5 {
		t.Fatalf("fixture: want bid 0 first at payment 2.5, got %+v", want)
	}
	sc := acquireScratch(set, cfg, 3)
	defer releaseScratch(sc)
	sc.resetClasses(set, qualified, 3)
	sc.gen = math.MaxUint32 - 1
	sc.stamp[1] = 1
	for run := 0; run < 2; run++ { // generations MaxUint32, then 1 after the wrap
		if got := solveWDP(set, qualified, 3, cfg, sc, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (gen %d): solve diverged from a fresh arena:\n%+v\nwant:\n%+v", run, sc.gen, got, want)
		}
	}
}

func TestSolveWDPOneBidPerClient(t *testing.T) {
	// A client offering two cheap bids may still win only one of them.
	bids := []Bid{
		{Client: 0, Index: 0, Price: 1, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 0, Index: 1, Price: 1, Theta: 0.5, Start: 2, End: 3, Rounds: 1},
		{Client: 1, Index: 0, Price: 10, Theta: 0.5, Start: 1, End: 3, Rounds: 3},
	}
	res := SolveWDP(bids, []int{0, 1, 2}, 3, Config{T: 3, K: 1})
	if !res.Feasible {
		t.Fatal("instance should be feasible via client 1")
	}
	seen := map[int]int{}
	for _, w := range res.Winners {
		seen[w.Bid.Client]++
	}
	for c, n := range seen {
		if n > 1 {
			t.Fatalf("client %d won %d bids", c, n)
		}
	}
}

func TestSolveWDPSchedulePrefersLeastCovered(t *testing.T) {
	// With K=2 and one slot already coverable only through a wide bid, the
	// representative schedule must grab the least-covered iterations.
	bids := []Bid{
		{Client: 0, Price: 1, Theta: 0.5, Start: 1, End: 3, Rounds: 3},
		{Client: 1, Price: 2, Theta: 0.5, Start: 1, End: 3, Rounds: 3},
		{Client: 2, Price: 9, Theta: 0.5, Start: 1, End: 3, Rounds: 1},
	}
	res := SolveWDP(bids, []int{0, 1, 2}, 3, Config{T: 3, K: 2})
	if !res.Feasible {
		t.Fatal("feasible instance reported infeasible")
	}
	// Clients 0 and 1 fully cover all three iterations twice; client 2 is
	// unnecessary and must not be selected.
	if len(res.Winners) != 2 {
		t.Fatalf("winners = %v, want exactly clients 0 and 1", res.Winners)
	}
	if got, want := res.Cost, 3.0; got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

func TestWDPResultCoversEveryIteration(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		bids, tg, k := randomWDPInstance(rng)
		qual := Qualified(bids, tg, Config{T: tg, K: k})
		res := SolveWDP(bids, qual, tg, Config{T: tg, K: k})
		if !res.Feasible {
			continue
		}
		if err := CheckWDPSolution(bids, res, Config{T: tg, K: k}); err != nil {
			t.Fatalf("trial %d: invalid solution: %v", trial, err)
		}
	}
}

// naiveSolveWDP is a direct O(rounds·bids·T log T) transcription of
// Algorithm 2 without the lazy-heap optimization. It recomputes every
// representative schedule and marginal utility from scratch each round and
// serves as the reference the optimized SolveWDP is checked against.
func naiveSolveWDP(bids []Bid, qualified []int, tg, k int) (winners []Winner, feasible bool) {
	gamma := make([]int, tg+1)
	inC := make(map[int]bool)
	for _, idx := range qualified {
		inC[idx] = true
	}
	covered := 0
	repSchedule := func(idx int) (slots []int, avail int) {
		b := bids[idx]
		hi := b.End
		if hi > tg {
			hi = tg
		}
		var cand []int
		for t := b.Start; t <= hi; t++ {
			cand = append(cand, t)
		}
		sort.Slice(cand, func(x, y int) bool {
			if gamma[cand[x]] != gamma[cand[y]] {
				return gamma[cand[x]] < gamma[cand[y]]
			}
			return cand[x] < cand[y]
		})
		if len(cand) > b.Rounds {
			cand = cand[:b.Rounds]
		}
		for _, t := range cand {
			if gamma[t] < k {
				avail++
			}
		}
		sort.Ints(cand)
		return cand, avail
	}
	for covered < k*tg {
		best, second := -1, -1
		var bestKey, secondKey float64
		bestKey, secondKey = math.Inf(1), math.Inf(1)
		bestR := 0
		for _, idx := range qualified {
			if !inC[idx] {
				continue
			}
			_, r := repSchedule(idx)
			if r == 0 {
				continue
			}
			key := bids[idx].Price / float64(r)
			if key < bestKey || (key == bestKey && (best == -1 || idx < best)) {
				if best != -1 {
					secondKey, second = bestKey, best
				}
				bestKey, best, bestR = key, idx, r
			} else if key < secondKey || (key == secondKey && (second == -1 || idx < second)) {
				secondKey, second = key, idx
			}
		}
		if best == -1 {
			return nil, false
		}
		slots, _ := repSchedule(best)
		pay := bids[best].Price
		if second != -1 {
			pay = float64(bestR) * secondKey
		}
		winners = append(winners, Winner{BidIndex: best, Bid: bids[best], Slots: slots, Payment: pay})
		for _, sib := range qualified {
			if bids[sib].Client == bids[best].Client {
				delete(inC, sib)
			}
		}
		for _, t := range slots {
			if gamma[t] < k {
				covered++
			}
			gamma[t]++
		}
	}
	return winners, true
}

func TestSolveWDPMatchesNaiveReference(t *testing.T) {
	rng := stats.NewRNG(42)
	for trial := 0; trial < 120; trial++ {
		bids, tg, k := randomWDPInstance(rng)
		qual := allIndices(bids)
		got := SolveWDP(bids, qual, tg, Config{T: tg, K: k})
		want, feasible := naiveSolveWDP(bids, qual, tg, k)
		if got.Feasible != feasible {
			t.Fatalf("trial %d: feasible = %v, reference %v", trial, got.Feasible, feasible)
		}
		if !feasible {
			continue
		}
		if len(got.Winners) != len(want) {
			t.Fatalf("trial %d: %d winners, reference %d", trial, len(got.Winners), len(want))
		}
		for i := range want {
			g, w := got.Winners[i], want[i]
			if g.BidIndex != w.BidIndex {
				t.Fatalf("trial %d round %d: selected bid %d, reference %d", trial, i, g.BidIndex, w.BidIndex)
			}
			if math.Abs(g.Payment-w.Payment) > 1e-9 {
				t.Fatalf("trial %d round %d: payment %v, reference %v", trial, i, g.Payment, w.Payment)
			}
			if len(g.Slots) != len(w.Slots) {
				t.Fatalf("trial %d round %d: slots %v, reference %v", trial, i, g.Slots, w.Slots)
			}
			for s := range w.Slots {
				if g.Slots[s] != w.Slots[s] {
					t.Fatalf("trial %d round %d: slots %v, reference %v", trial, i, g.Slots, w.Slots)
				}
			}
		}
	}
}

// randomWDPInstance generates a small random instance with enough supply to
// usually (not always) be feasible.
func randomWDPInstance(rng *stats.RNG) (bids []Bid, tg, k int) {
	tg = rng.IntRange(2, 8)
	k = rng.IntRange(1, 3)
	clients := rng.IntRange(k+1, 10)
	for c := 0; c < clients; c++ {
		nbids := rng.IntRange(1, 3)
		for j := 0; j < nbids; j++ {
			start := rng.IntRange(1, tg)
			end := rng.IntRange(start, tg)
			// end ≤ tg already guarantees the qualification constraint
			// a + c − 1 ≤ T̂_g for any c ≤ end − start + 1.
			maxRounds := end - start + 1
			bids = append(bids, Bid{
				Client: c,
				Index:  j,
				Price:  float64(rng.IntRange(1, 50)),
				Theta:  rng.FloatRange(0.1, 0.6),
				Start:  start,
				End:    end,
				Rounds: rng.IntRange(1, maxRounds),
			})
		}
	}
	return bids, tg, k
}

func allIndices(bids []Bid) []int {
	out := make([]int, len(bids))
	for i := range bids {
		out[i] = i
	}
	return out
}

func TestDualCertificate(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 80; trial++ {
		bids, tg, k := randomWDPInstance(rng)
		res := SolveWDP(bids, allIndices(bids), tg, Config{T: tg, K: k})
		if !res.Feasible {
			continue
		}
		d := res.Dual
		if d.Omega < 1 {
			t.Fatalf("trial %d: ω = %v < 1", trial, d.Omega)
		}
		if d.HarmonicTg <= 0 {
			t.Fatalf("trial %d: H = %v", trial, d.HarmonicTg)
		}
		if d.Objective <= 0 {
			t.Fatalf("trial %d: dual objective %v must be positive", trial, d.Objective)
		}
		// Lemma 5: P ≤ H_{T̂_g}·ω·D.
		if res.Cost > d.RatioBound*d.Objective+1e-6 {
			t.Fatalf("trial %d: P=%v exceeds τ·D=%v (τ=%v, D=%v)",
				trial, res.Cost, d.RatioBound*d.Objective, d.RatioBound, d.Objective)
		}
		g, lambda := dualVectors(res)
		for _, v := range g {
			if v < -1e-12 {
				t.Fatalf("trial %d: negative dual g(t)=%v", trial, v)
			}
		}
		for idx, l := range lambda {
			if l < -1e-12 {
				t.Fatalf("trial %d: negative dual λ[%d]=%v", trial, idx, l)
			}
		}
	}
}

// TestFeasibleWDPAllocBound pins what a feasible A_winner solve
// allocates on a warm arena: exactly its winner list and the copy of
// their schedules. Nothing is allocated per winner, and nothing for the
// dual, whose variables are summed into its objective without being
// stored.
func TestFeasibleWDPAllocBound(t *testing.T) {
	const maxT, k = 30, 4
	bids := randomAuctionBids(stats.NewRNG(71), maxT, 150)
	set := CompileBids(bids)
	cfg := Config{T: maxT, K: k}
	sc := acquireScratch(set, cfg, maxT)
	defer releaseScratch(sc)
	for _, tg := range []int{10, 20, maxT} {
		qualified := Qualified(bids, tg, cfg)
		solve := func() WDPResult {
			sc.resetClasses(set, qualified, tg)
			return solveWDP(set, qualified, tg, cfg, sc, nil)
		}
		if res := solve(); !res.Feasible || len(res.Winners) < 2 {
			t.Fatalf("tg=%d: workload not discriminating: feasible=%v winners=%d", tg, res.Feasible, len(res.Winners))
		}
		if got := testing.AllocsPerRun(20, func() { solve() }); got != 2 {
			t.Fatalf("tg=%d: a feasible solve on a warm arena allocates %v objects, want 2 (winner list and schedules)", tg, got)
		}
	}
}

func TestDualIsLowerBoundOnEnumeratedOptimum(t *testing.T) {
	// On tiny instances, enumerate all feasible bid subsets to find the
	// optimal WDP cost and confirm D ≤ OPT (weak duality).
	rng := stats.NewRNG(23)
	for trial := 0; trial < 40; trial++ {
		tg := rng.IntRange(2, 4)
		k := 1
		var bids []Bid
		clients := rng.IntRange(2, 6)
		for c := 0; c < clients; c++ {
			start := rng.IntRange(1, tg)
			end := rng.IntRange(start, tg)
			maxRounds := end - start + 1
			if start+maxRounds > tg {
				maxRounds = tg - start
			}
			if maxRounds < 1 {
				continue
			}
			bids = append(bids, Bid{
				Client: c,
				Price:  float64(rng.IntRange(1, 20)),
				Theta:  0.4,
				Start:  start,
				End:    end,
				Rounds: rng.IntRange(1, maxRounds),
			})
		}
		if len(bids) == 0 {
			continue
		}
		res := SolveWDP(bids, allIndices(bids), tg, Config{T: tg, K: k})
		if !res.Feasible {
			continue
		}
		opt, ok := bruteForceWDP(bids, tg, k)
		if !ok {
			t.Fatalf("trial %d: greedy feasible but brute force infeasible", trial)
		}
		if res.Dual.Objective > opt+1e-6 {
			t.Fatalf("trial %d: dual %v exceeds optimum %v", trial, res.Dual.Objective, opt)
		}
		if res.Dual.TightObjective > opt+1e-6 {
			t.Fatalf("trial %d: tight dual %v exceeds optimum %v", trial, res.Dual.TightObjective, opt)
		}
		if res.Dual.Bound() < res.Dual.Objective {
			t.Fatalf("trial %d: Bound() below Objective", trial)
		}
		if res.Cost < opt-1e-9 {
			t.Fatalf("trial %d: greedy cost %v below optimum %v", trial, res.Cost, opt)
		}
	}
}

// bruteForceWDP enumerates all subsets of bids (one per client enforced)
// and all schedules implicitly by checking coverage feasibility of the
// subset via a greedy max-flow-free argument valid for K=1: a subset is
// feasible iff its bids can cover every t. For K=1 coverage, bid windows
// with c rounds form a transversal problem solved exactly by bipartite
// matching; here we use small sizes and a recursive assignment.
func bruteForceWDP(bids []Bid, tg, k int) (float64, bool) {
	best := math.Inf(1)
	n := len(bids)
	var rec func(i int, chosen []int)
	rec = func(i int, chosen []int) {
		if i == n {
			if subsetCovers(bids, chosen, tg, k) {
				var c float64
				for _, idx := range chosen {
					c += bids[idx].Price
				}
				if c < best {
					best = c
				}
			}
			return
		}
		rec(i+1, chosen)
		for _, idx := range chosen {
			if bids[idx].Client == bids[i].Client {
				return // one bid per client
			}
		}
		rec(i+1, append(chosen, i))
	}
	rec(0, nil)
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// subsetCovers decides whether the chosen bids can be scheduled (each bid
// placing exactly its Rounds inside its window, at most once per slot per
// bid) so that every slot gets at least k participants. Solved exactly via
// backtracking over per-bid slot choices; fine for the tiny test sizes.
func subsetCovers(bids []Bid, chosen []int, tg, k int) bool {
	cover := make([]int, tg+1)
	var place func(bi int) bool
	place = func(bi int) bool {
		if bi == len(chosen) {
			for t := 1; t <= tg; t++ {
				if cover[t] < k {
					return false
				}
			}
			return true
		}
		b := bids[chosen[bi]]
		hi := b.End
		if hi > tg {
			hi = tg
		}
		var slots []int
		for t := b.Start; t <= hi; t++ {
			slots = append(slots, t)
		}
		var combo func(startIdx, left int) bool
		var picked []int
		combo = func(startIdx, left int) bool {
			if left == 0 {
				for _, t := range picked {
					cover[t]++
				}
				ok := place(bi + 1)
				for _, t := range picked {
					cover[t]--
				}
				return ok
			}
			for s := startIdx; s <= len(slots)-left; s++ {
				picked = append(picked, slots[s])
				if combo(s+1, left-1) {
					picked = picked[:len(picked)-1]
					return true
				}
				picked = picked[:len(picked)-1]
			}
			return false
		}
		if b.Rounds > len(slots) {
			return false
		}
		return combo(0, b.Rounds)
	}
	return place(0)
}

// TestRunCapsSettle has three arenas, warmed at different horizons, take
// turns at three horizons on fresh compilations of one population, as
// the segments and pricers of successive auctions draw pooled arenas, and
// holds their capacities fixed once every arena has served every role.
// An arena grown to a recorded capacity must get exactly that capacity,
// and one that did not grow must record nothing: otherwise each records a
// rounded-up or borrowed capacity that the next grows to, and the arenas
// inflate one another without bound.
func TestRunCapsSettle(t *testing.T) {
	const maxT, k = 30, 4
	bids := randomAuctionBids(stats.NewRNG(71), maxT, 150)
	cfg := Config{T: maxT, K: k}
	arenas := []*wdpScratch{new(wdpScratch), new(wdpScratch), new(wdpScratch)}
	serve := func(sc *wdpScratch, set *BidSet, tg int) {
		sc.ensure(set, maxT)
		qualified := Qualified(bids, tg, cfg)
		sc.resetClasses(set, qualified, tg)
		if !solveWDP(set, qualified, tg, cfg, sc, nil).Feasible {
			t.Fatalf("tg=%d: workload infeasible", tg)
		}
		set.cls.caps.note(sc)
	}
	for i, sc := range arenas {
		serve(sc, CompileBids(bids), 10*(i+1))
	}
	var settled [3][4]int
	for round := 0; round < 12; round++ {
		set := CompileBids(bids)
		for i, tg := range []int{10, 20, maxT} {
			serve(arenas[(round+i)%len(arenas)], set, tg)
		}
		for i, sc := range arenas {
			switch {
			case round == 3:
				settled[i] = sc.runBufs()
			case round > 3 && sc.runBufs() != settled[i]:
				t.Fatalf("round %d: arena %d capacities %v, settled at %v", round, i, sc.runBufs(), settled[i])
			}
		}
	}
}
