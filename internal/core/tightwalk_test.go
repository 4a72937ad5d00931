package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/fedauction/afl/internal/core"
)

// sameTight reports whether two tight-dual objectives agree bit for bit.
func sameTight(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTightWalkMatchesScan holds the tight dual's walk over the initial
// candidate order to the full scan over the touched classes, bit for bit,
// on every feasible WDP of sweeps over the tie-heavy integer-price
// populations FuzzSweepVsSeed draws (equal keys across classes and
// marginals are common there), under both schedule rules. It adds a
// population with a key exactly on the walk's exit bound: A prices two
// slots at 2²⁹ each, which sets the scale to 1 and the bound to
// 2²⁹·(1+2⁻²⁹) = 2²⁹+1, B is keyed at 2²⁹+1 and C at 2²⁹+2. Valid
// populations with a price outside [2⁻²⁵⁶, 2²⁵⁶] take the scan instead,
// so there only the reported objective is held to it.
func TestTightWalkMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type population struct {
		bids     []core.Bid
		cfg      core.Config
		scanOnly bool
	}
	onBound := []core.Bid{
		{Client: 0, Price: 1 << 30, Theta: 0.5, Start: 1, End: 2, Rounds: 2},
		{Client: 1, Price: 1<<29 + 1, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 2, Price: 1<<29 + 2, Theta: 0.5, Start: 2, End: 2, Rounds: 1},
	}
	for i := range onBound {
		onBound[i].TrueCost = onBound[i].Price
	}
	pops := []population{{onBound, core.Config{T: 2, K: 1}, false}}
	for trial := 0; trial < 1000; trial++ {
		data := make([]byte, sweepFuzzStride*(15+rng.Intn(40)))
		rng.Read(data)
		maxT := 2 + rng.Intn(11)
		cfg := core.Config{T: maxT, K: 1 + rng.Intn(3), ScheduleRule: core.ScheduleRule(trial % 2)}
		pops = append(pops, population{decodeSweepBids(data, maxT, 3+trial/2%2, false), cfg, false})
	}
	for i, p := range pops[1:41] {
		// Every price times 10⁻²⁰⁰ or 10²⁰⁰, or one price set to either.
		bids := slices.Clone(p.bids)
		extreme := []float64{1e-200, 1e200}[i%2]
		for j := range bids {
			if i%4 < 2 {
				bids[j].Price *= extreme
			} else if j == 0 {
				bids[j].Price = extreme
			}
			bids[j].TrueCost = bids[j].Price
		}
		pops = append(pops, population{bids, p.cfg, true})
	}
	wdps, onBoundSeen, scanOnly := 0, 0, 0
	for i, p := range pops {
		if core.ValidateBids(p.bids, p.cfg.T, p.cfg.K) != nil {
			continue
		}
		duals, err := core.SweepTightDuals(p.bids, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range duals {
			if p.scanOnly {
				scanOnly++
				if !sameTight(d.Reported, d.Scan) {
					t.Fatalf("population %d T̂_g %d: reported %v, scan %v", i, d.Tg, d.Reported, d.Scan)
				}
				continue
			}
			wdps++
			onBoundSeen += d.OnBound
			if !sameTight(d.Reported, d.Scan) || !sameTight(d.Walk, d.Scan) {
				t.Fatalf("population %d T̂_g %d: reported %v, walk %v, scan %v", i, d.Tg, d.Reported, d.Walk, d.Scan)
			}
		}
		if i == 0 && (len(duals) != 1 || duals[0].OnBound != 1) {
			t.Fatalf("on-bound population: duals %+v, want one WDP with one entry on the bound", duals)
		}
	}
	if wdps < 1000 || onBoundSeen == 0 || scanOnly < 20 {
		t.Fatalf("%d WDPs, %d entries on the bound, %d extreme-price WDPs: the corpus is too thin", wdps, onBoundSeen, scanOnly)
	}
}

// TestTightDualBaseTakesScan checks that a solve with base coverage keeps
// the full scan. Under earliest-fit, X's first two slots are full from the
// base, so X starts with marginal 0 and has no entry in the initial
// order, yet its window reaches the slots A covers and sets the scale:
// the walk would miss it.
func TestTightDualBaseTakesScan(t *testing.T) {
	bids := []core.Bid{
		{Client: 0, Price: 10, Theta: 0.5, Start: 3, End: 4, Rounds: 2},
		{Client: 1, Price: 1, Theta: 0.5, Start: 1, End: 4, Rounds: 2},
	}
	cfg := core.Config{T: 4, K: 1, ScheduleRule: core.ScheduleEarliest}
	d := core.BaseTightDual(bids, []int{0, 1}, 4, cfg, []int{1, 1, 0, 0})
	if sameTight(d.Walk, d.Scan) {
		t.Fatalf("fixture: walk %v equals scan %v, so it cannot tell the paths apart", d.Walk, d.Scan)
	}
	if !sameTight(d.Reported, d.Scan) {
		t.Fatalf("base solve reported %v, want the scan's %v (walk %v)", d.Reported, d.Scan, d.Walk)
	}
}
