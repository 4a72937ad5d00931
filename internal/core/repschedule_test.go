package core

import (
	"math/rand"
	"slices"
	"testing"
)

// referenceSchedule is the representative-schedule kernel as the
// comparator sort states it: the effective slot range, sorted by
// (γ_t, t) under the least-covered rule, cut to c_ij slots; the schedule
// is that cut in ascending order, and F_il its open (γ_t < K) slots in
// the cut's order.
func referenceSchedule(w *wdpState, idx int) (slots, covered []int) {
	lo, hi := w.slotRangeOf(idx)
	var cand []int
	for t := lo; t <= hi; t++ {
		cand = append(cand, t)
	}
	if w.cfg.ScheduleRule != ScheduleEarliest {
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
	for _, t := range cand {
		if w.gamma[t-1] < w.cfg.K {
			covered = append(covered, t)
		}
	}
	slots = slices.Clone(cand)
	slices.Sort(slots)
	return slots, covered
}

// coverageState returns a run on set at horizon tg whose coverage is
// gamma: γ drawn from a few levels around K, so ties, full slots and
// windows with more or fewer open slots than rounds are all common, and
// now and then one huge level.
func coverageState(t *testing.T, rng *rand.Rand, set *BidSet, tg int, cfg Config) *wdpState {
	t.Helper()
	sc := acquireScratch(set, cfg, tg)
	t.Cleanup(func() { releaseScratch(sc) })
	qualified := make([]int, set.Len())
	for i := range qualified {
		qualified[i] = i
	}
	sc.resetClasses(set, qualified, 0)
	w := sc.begin(set, qualified, tg, cfg, nil, -1)
	levels := 1 + rng.Intn(cfg.K+3)
	for s := range w.gamma {
		w.gamma[s] = rng.Intn(levels)
		if rng.Intn(40) == 0 {
			w.gamma[s] = 1<<60 + rng.Intn(3)
		}
	}
	return w
}

// TestRepScheduleMatchesComparatorSort holds the representative-schedule
// kernel to the comparator sort over random coverage: γ on a few levels
// (ties) on both sides of K, windows clipped by T̂_g, rounds up to and
// past the window, runs on both sides of the insertion cut-off, and both
// schedule rules. The schedule and its open slots in covered order must
// match exactly, and so must representativeSchedule's copies of them.
func TestRepScheduleMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		// Every third trial has windows of about 2–3 insertion cut-offs.
		long := trial%3 == 2
		maxT := 1 + rng.Intn(40)
		if long {
			maxT = 2*shortSortMax + rng.Intn(shortSortMax)
		}
		var bids []Bid
		for i := 0; i < 30; i++ {
			start := 1 + rng.Intn(maxT)
			end := start + rng.Intn(maxT-start+1)
			if long {
				start, end = 1+rng.Intn(8), maxT-rng.Intn(8)
			}
			bids = append(bids, Bid{Client: i, Price: 1, Theta: 0.5, Start: start, End: end, Rounds: 1 + rng.Intn(end-start+3)})
		}
		set := CompileBids(bids)
		cfg := Config{T: maxT, K: 1 + rng.Intn(4), ScheduleRule: ScheduleRule(trial % 2)}
		tg := 1 + rng.Intn(maxT)
		if long {
			tg = maxT - rng.Intn(shortSortMax/2)
		}
		w := coverageState(t, rng, set, tg, cfg)
		for idx := range bids {
			if lo, hi := w.slotRangeOf(idx); hi < lo {
				continue // the window starts beyond the horizon: never selected
			}
			wantSlots, wantCovered := referenceSchedule(w, idx)
			slots, covered := w.repSchedule(idx)
			if !slices.Equal(slots, wantSlots) || !slices.Equal(covered, wantCovered) {
				t.Fatalf("trial %d bid %+v tg %d rule %v γ %v:\nslots %v covered %v\nwant  %v covered %v",
					trial, bids[idx], tg, cfg.ScheduleRule, w.gamma, slots, covered, wantSlots, wantCovered)
			}
			slots, covered = w.representativeSchedule(idx)
			if !slices.Equal(slots, wantSlots) || !slices.Equal(covered, wantCovered) {
				t.Fatalf("trial %d bid %+v: representativeSchedule %v covered %v, want %v covered %v",
					trial, bids[idx], slots, covered, wantSlots, wantCovered)
			}
		}
	}
}
