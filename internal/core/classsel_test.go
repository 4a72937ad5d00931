package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/fedauction/afl/internal/obs"
)

// referenceOrder builds a run's initial candidate order from scratch:
// every class qualified touches, keyed at its first qualified member in
// (price, bid) order under the class marginal at the run's start (base
// pre-committed), with the smallest bid among the members from there on
// whose key ties it, classes with no marginal left out, sorted by (key,
// bid).
func referenceOrder(set *BidSet, qualified []int, tg int, cfg Config, base []int) []classEntry {
	cls := set.classes()
	first := map[int]int{}
	for _, b := range qualified {
		c, p := cls.classOf[b], cls.memberPos[b]
		if q, ok := first[c]; !ok || p < q {
			first[c] = p
		}
	}
	var out []classEntry
	for c, p := range first {
		lo, hi := cls.shape[c].lo, min(cls.shape[c].hi, tg)
		if cfg.ScheduleRule == ScheduleEarliest {
			hi = min(hi, lo+cls.shape[c].r-1)
		}
		open := 0
		for t := lo; t <= hi; t++ {
			if base == nil || base[t-1] < cfg.K {
				open++
			}
		}
		marg := open
		if cfg.ScheduleRule == ScheduleLeastCovered {
			marg = min(open, cls.shape[c].r)
		}
		if marg == 0 {
			continue
		}
		row := cls.members[cls.memberStart[c]:cls.memberStart[c+1]]
		key, head := set.price[row[p]]/float64(marg), row[p]
		for _, b := range row[p:] {
			if set.price[b]/float64(marg) == key {
				head = min(head, b)
			}
		}
		out = append(out, classEntry{heapEntry: heapEntry{key: key, bid: head}, cls: c})
	}
	slices.SortFunc(out, func(a, b classEntry) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return a.bid - b.bid
	})
	return out
}

// twinPopulations draws two populations with the same class rows — the
// same (start, end, rounds) shapes in the same bid order — and integer
// prices from {1, 2, 3, 4}, but independent prices and θ, so the classes
// each one touches, and when, differ.
func twinPopulations(rng *rand.Rand, n, clients, maxT int) (a, b []Bid) {
	a = randomBids(rng, n, clients, maxT)
	b = slices.Clone(a)
	for i := range a {
		a[i].Price = float64(1 + rng.Intn(4))
		b[i].Price = float64(1 + rng.Intn(4))
		b[i].Theta = 0.05 + 0.9*rng.Float64()
		a[i].TrueCost, b[i].TrueCost = a[i].Price, b[i].Price
	}
	return a, b
}

// TestCarriedOrderMatchesFreshSort holds the initial candidate order a
// sweep segment carries across its ascending T̂_g to a fresh build at
// every T̂_g. Two populations with the same class rows and integer prices
// — ties in (key, bid) order between classes, and classes whose keys
// coincide across the populations — are swept back to back on one
// pooled arena, under both schedule rules, so every order after the first
// is built on an arena another population has just used. Each solve must
// also equal a one-off solve at its T̂_g.
//
// It then prices a winner of each population in a residual market (base
// coverage pre-committed, siblings pruned) and holds the pricer's cached
// order, which every held-out run reuses, to a fresh build as well.
func TestCarriedOrderMatchesFreshSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const maxT = 12
	a, b := twinPopulations(rng, 90, 30, maxT)
	sc := acquireScratch(CompileBids(a), Config{T: maxT, K: 2}, maxT)
	defer releaseScratch(sc)
	solves := 0
	for _, sched := range []ScheduleRule{ScheduleLeastCovered, ScheduleEarliest} {
		for pop, bids := range [][]Bid{a, b} {
			cfg := Config{T: maxT, K: 2, ScheduleRule: sched}
			set := CompileBids(bids)
			if err := ValidateBidSet(set, cfg.T, cfg.K); err != nil {
				t.Fatal(err)
			}
			ax := newAuctionContext(set, cfg)
			check := obs.ObserverFunc(func(e obs.Event) {
				if e.Kind != obs.EvWDPSolved {
					return
				}
				solves++
				want := referenceOrder(set, ax.qualifiedAt(e.Tg), e.Tg, cfg, nil)
				if !reflect.DeepEqual(sc.clsOrder, want) {
					t.Fatalf("%v pop %d tg=%d: carried order\n%v\nfresh sort\n%v", sched, pop, e.Tg, sc.clsOrder, want)
				}
			})
			out := make([]WDPResult, cfg.T-ax.t0+1)
			if err := ax.sweepArena(context.Background(), sc, ax.t0, cfg.T, out, nil, check, time.Now); err != nil {
				t.Fatal(err)
			}
			for _, wdp := range out {
				if once := solveOnce(set, ax.qualifiedAt(wdp.Tg), wdp.Tg, cfg, nil); !reflect.DeepEqual(wdp, once) {
					t.Fatalf("%v pop %d tg=%d: carried-order solve diverged from a one-off solve", sched, pop, wdp.Tg)
				}
			}
			checkPricerOrder(t, set, ax.qualifiedAt(cfg.T), cfg)
		}
	}
	if solves != 4*(maxT-1) {
		t.Fatalf("checked %d solves, want every T̂_g of four sweeps", solves)
	}
}

// checkPricerOrder prices the first two winners of the market at tg = T
// with a third of the slots pre-covered and ExcludeOwnBids on, and holds
// the pricer's order to a fresh build after each hold and its probes.
func checkPricerOrder(t *testing.T, set *BidSet, qualified []int, cfg Config) {
	t.Helper()
	cfg.ExcludeOwnBids = true
	base := make([]int, cfg.T)
	for i := range base {
		if i%3 == 0 {
			base[i] = cfg.K
		}
	}
	res := solveOnce(set, qualified, cfg.T, cfg, base)
	if len(res.Winners) < 2 {
		t.Fatalf("residual market picked %d winners; the fixture needs two", len(res.Winners))
	}
	want := referenceOrder(set, qualified, cfg.T, cfg, base)
	pr := newPricer(set, qualified, cfg.T, cfg, base)
	defer pr.release()
	for _, win := range res.Winners[:2] {
		pr.hold(win)
		pr.wins(win.Payment)
		pr.wins(win.Bid.Price / 2)
		if !reflect.DeepEqual(pr.sc.clsOrder, want) {
			t.Fatalf("%v: pricer's order\n%v\nfresh sort\n%v", cfg.ScheduleRule, pr.sc.clsOrder, want)
		}
	}
}
