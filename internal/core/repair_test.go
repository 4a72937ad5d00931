package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// buildRepairScenario runs the auction on a random population, "drops"
// the first winner, and assembles the repair request the session runtime
// would issue at detection round detect: history marked satisfied,
// surviving winners' future slots pre-committed, all winners and the
// dropped client excluded from promotion.
func buildRepairScenario(t *testing.T, rng *rand.Rand, cfg Config) (eng *Engine, req RepairRequest, dropped int, ok bool) {
	t.Helper()
	bids := randomBids(rng, 10+rng.Intn(30), 4+rng.Intn(10), cfg.T)
	eng, err := NewEngine(bids, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, _ := eng.RunCtx(context.Background(), RunOptions{})
	if !res.Feasible || len(res.Winners) < 2 {
		return nil, RepairRequest{}, 0, false
	}
	drop := res.Winners[0]
	detect := drop.Slots[0] // the drop is noticed at the winner's first round
	base := make([]int, res.Tg)
	for i := 0; i < detect-1; i++ {
		base[i] = cfg.K
	}
	exclude := map[int]bool{drop.Bid.Client: true}
	for _, w := range res.Winners[1:] {
		exclude[w.Bid.Client] = true
		for _, s := range w.Slots {
			if s >= detect {
				base[s-1]++
			}
		}
	}
	return eng, RepairRequest{Tg: res.Tg, From: detect, Base: base, Exclude: exclude}, drop.Bid.Client, true
}

func TestRepairRestoresCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := Config{T: 10, K: 2}
	repaired := 0
	for trial := 0; trial < 200; trial++ {
		eng, req, droppedClient, ok := buildRepairScenario(t, rng, cfg)
		if !ok {
			continue
		}
		res, err := eng.RepairCtx(context.Background(), req, RunOptions{})
		if err != nil {
			t.Fatalf("trial %d: Repair: %v", trial, err)
		}
		if len(res.Deficit) == 0 {
			// The schedule over-covered the dropped slots (representative
			// schedules may include already-full iterations): nothing to buy.
			if !res.Feasible || len(res.Winners) != 0 {
				t.Fatalf("trial %d: empty deficit must repair trivially, got %+v", trial, res)
			}
			continue
		}
		if !res.Feasible {
			continue // legitimately unrepairable: too little losing supply
		}
		repaired++
		gamma := append([]int(nil), req.Base...)
		var cost float64
		for _, w := range res.Winners {
			if req.Exclude[w.Bid.Client] {
				t.Fatalf("trial %d: excluded client %d promoted", trial, w.Bid.Client)
			}
			if w.Bid.Client == droppedClient {
				t.Fatalf("trial %d: dropped client %d promoted", trial, droppedClient)
			}
			if w.Payment+1e-9 < w.Bid.Price {
				t.Fatalf("trial %d: replacement paid %.6f below its price %.6f",
					trial, w.Payment, w.Bid.Price)
			}
			cost += w.Bid.Price
			for _, s := range w.Slots {
				if s < req.From || s > req.Tg {
					t.Fatalf("trial %d: replacement slot %d outside [%d,%d]",
						trial, s, req.From, req.Tg)
				}
				gamma[s-1]++
			}
		}
		for tt := req.From; tt <= req.Tg; tt++ {
			if gamma[tt-1] < cfg.K {
				t.Fatalf("trial %d: iteration %d still covered %d < K=%d after repair",
					trial, tt, gamma[tt-1], cfg.K)
			}
		}
		if math.Abs(cost-res.Cost) > 1e-9 {
			t.Fatalf("trial %d: reported cost %.6f != summed prices %.6f", trial, res.Cost, cost)
		}
	}
	if repaired == 0 {
		t.Fatal("no trial produced a feasible repair; scenario generator too hostile")
	}
}

func TestRepairNothingToBuy(t *testing.T) {
	cfg := Config{T: 6, K: 2}
	bids := randomBids(rand.New(rand.NewSource(3)), 20, 8, cfg.T)
	eng, err := NewEngine(bids, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	base := make([]int, 6)
	for i := range base {
		base[i] = cfg.K
	}
	res, err := eng.RepairCtx(context.Background(), RepairRequest{Tg: 6, From: 3, Base: base}, RunOptions{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Feasible || len(res.Winners) != 0 || res.Cost != 0 {
		t.Fatalf("saturated base should repair trivially, got %+v", res)
	}
}

func TestRepairValidation(t *testing.T) {
	cfg := Config{T: 6, K: 2}
	bids := randomBids(rand.New(rand.NewSource(4)), 20, 8, cfg.T)
	eng, err := NewEngine(bids, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	base := make([]int, 6)
	bad := []RepairRequest{
		{Tg: 0, From: 1, Base: nil},
		{Tg: 7, From: 1, Base: make([]int, 7)},
		{Tg: 6, From: 0, Base: base},
		{Tg: 6, From: 7, Base: base},
		{Tg: 6, From: 1, Base: make([]int, 5)},
		{Tg: 6, From: 1, Base: []int{0, 0, -1, 0, 0, 0}},
	}
	for i, req := range bad {
		if _, err := eng.RepairCtx(context.Background(), req, RunOptions{}); err == nil {
			t.Fatalf("request %d should have been rejected: %+v", i, req)
		}
	}
}

func TestRepairInfeasibleReportsDeficit(t *testing.T) {
	cfg := Config{T: 6, K: 2}
	bids := randomBids(rand.New(rand.NewSource(5)), 20, 8, cfg.T)
	eng, err := NewEngine(bids, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	exclude := make(map[int]bool)
	for _, b := range bids {
		exclude[b.Client] = true
	}
	res, err := eng.RepairCtx(context.Background(), RepairRequest{Tg: 6, From: 2, Base: make([]int, 6), Exclude: exclude}, RunOptions{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if res.Feasible {
		t.Fatal("repair with every client excluded cannot be feasible")
	}
	if len(res.Deficit) != 5 {
		t.Fatalf("deficit should list iterations 2..6, got %v", res.Deficit)
	}
}

// TestRepairEmptyBaseMatchesSolveWDP pins the residual solver to the
// original one: with no pre-committed coverage, no exclusions and the
// full horizon, Repair must reproduce Engine.SolveWDP exactly.
func TestRepairEmptyBaseMatchesSolveWDP(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := Config{T: 8, K: 2}
	for trial := 0; trial < 100; trial++ {
		bids := randomBids(rng, 10+rng.Intn(25), 4+rng.Intn(8), cfg.T)
		eng, err := NewEngine(bids, cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		want := eng.SolveWDP(cfg.T)
		got, err := eng.RepairCtx(context.Background(), RepairRequest{Tg: cfg.T, From: 1, Base: make([]int, cfg.T)}, RunOptions{})
		if err != nil {
			t.Fatalf("trial %d: Repair: %v", trial, err)
		}
		if got.Feasible != want.Feasible {
			t.Fatalf("trial %d: feasibility %v != %v", trial, got.Feasible, want.Feasible)
		}
		if !want.Feasible {
			continue
		}
		if math.Abs(got.Cost-want.Cost) > 1e-12 {
			t.Fatalf("trial %d: cost %.12f != %.12f", trial, got.Cost, want.Cost)
		}
		if len(got.Winners) != len(want.Winners) {
			t.Fatalf("trial %d: %d winners != %d", trial, len(got.Winners), len(want.Winners))
		}
		for i := range got.Winners {
			g, w := got.Winners[i], want.Winners[i]
			if g.BidIndex != w.BidIndex || g.Payment != w.Payment {
				t.Fatalf("trial %d winner %d: (%d, %.12f) != (%d, %.12f)",
					trial, i, g.BidIndex, g.Payment, w.BidIndex, w.Payment)
			}
		}
	}
}

// TestRepairPaymentsAreCriticalValues is the misreport probe on the
// repair market: under RuleExactCritical, a promoted replacement keeps
// winning (at the same payment) when it underbids its payment, and loses
// the promotion when it overbids it. That is precisely the critical-value
// property that makes truthful bidding dominant for replacements.
func TestRepairPaymentsAreCriticalValues(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := Config{T: 10, K: 2, PaymentRule: RuleExactCritical}
	probes := 0
	for trial := 0; trial < 120 && probes < 25; trial++ {
		eng, req, _, ok := buildRepairScenario(t, rng, cfg)
		if !ok {
			continue
		}
		res, err := eng.RepairCtx(context.Background(), req, RunOptions{})
		if err != nil {
			t.Fatalf("trial %d: Repair: %v", trial, err)
		}
		if !res.Feasible || len(res.Winners) == 0 {
			continue
		}
		w := res.Winners[0]
		bids := eng.ax.set.Bids()
		reRun := func(price float64) (won bool, payment float64) {
			probe := append([]Bid(nil), bids...)
			probe[w.BidIndex].Price = price
			probeEng, err := NewEngine(probe, cfg)
			if err != nil {
				t.Fatalf("trial %d: probe engine: %v", trial, err)
			}
			pres, err := probeEng.RepairCtx(context.Background(), req, RunOptions{})
			if err != nil {
				t.Fatalf("trial %d: probe repair: %v", trial, err)
			}
			for _, pw := range pres.Winners {
				if pw.Bid.Client == w.Bid.Client && pw.Bid.Index == w.Bid.Index {
					return true, pw.Payment
				}
			}
			return false, 0
		}
		if wonAtHuge, _ := reRun(w.Payment*1e6 + 1); wonAtHuge {
			// Essential replacement: without a reserve price it wins at any
			// bid and has no finite critical value (documented
			// RuleExactCritical edge), so the probes do not apply.
			continue
		}
		if under := 0.5 * w.Bid.Price; under > 0 {
			won, pay := reRun(under)
			if !won {
				t.Fatalf("trial %d: replacement lost after lowering its price", trial)
			}
			if math.Abs(pay-w.Payment) > 1e-6*(1+w.Payment) {
				t.Fatalf("trial %d: payment moved with own bid: %.9f != %.9f", trial, pay, w.Payment)
			}
		}
		if over := w.Payment * 1.001; over > w.Bid.Price {
			if won, _ := reRun(over); won {
				t.Fatalf("trial %d: replacement still promoted bidding %.6f above its critical value %.6f",
					trial, over, w.Payment)
			}
		}
		probes++
	}
	if probes == 0 {
		t.Fatal("no feasible repair produced a probe; generator too hostile")
	}
}
