package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/fedauction/afl/internal/stats"
)

func TestMinTg(t *testing.T) {
	tests := []struct {
		name string
		bids []Bid
		want int
	}{
		{"empty", nil, 1},
		{"theta half", []Bid{{Theta: 0.5}}, 2},
		{"theta 0.3", []Bid{{Theta: 0.3}, {Theta: 0.9}}, 2},
		{"theta 0.75", []Bid{{Theta: 0.75}}, 4},
		{"theta 0.8", []Bid{{Theta: 0.8}, {Theta: 0.9}}, 5},
		{"tiny theta", []Bid{{Theta: 0.01}}, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := MinTg(tc.bids); got != tc.want {
				t.Fatalf("MinTg = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestQualified(t *testing.T) {
	cfg := Config{T: 10, K: 1, TMax: 60}
	bids := []Bid{
		// θ=0.5 needs T̂_g ≥ 2; per-round time 5·⌊10·0.5⌋+10 = 35 ≤ 60.
		{Client: 0, Price: 1, Theta: 0.5, Start: 1, End: 5, Rounds: 2, CompTime: 5, CommTime: 10},
		// θ=0.9 needs T̂_g ≥ 10.
		{Client: 1, Price: 1, Theta: 0.9, Start: 1, End: 5, Rounds: 2, CompTime: 5, CommTime: 10},
		// Slow client: ⌊10·(1−0.2)⌋·10+10 = 90 > 60 fails (6d).
		{Client: 2, Price: 1, Theta: 0.2, Start: 1, End: 5, Rounds: 2, CompTime: 10, CommTime: 10},
		// Starts too late for its rounds: a+c−1 = 9+2−1 = 10 > 8.
		{Client: 3, Price: 1, Theta: 0.5, Start: 9, End: 10, Rounds: 2, CompTime: 5, CommTime: 10},
	}
	got := Qualified(bids, 8, cfg)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Qualified(tg=8) = %v, want [0]", got)
	}
	// At T̂_g = 10, the θ=0.9 bid qualifies (θ_max = 0.9) and so does the
	// late bid (its two rounds fit in [9,10]).
	got = Qualified(bids, 10, cfg)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("Qualified(tg=10) = %v, want [0 1 3]", got)
	}
	if got := Qualified(bids, 0, cfg); got != nil {
		t.Fatalf("Qualified(tg=0) = %v, want nil", got)
	}
}

func TestRunAuctionValidation(t *testing.T) {
	valid := Bid{Client: 0, Price: 1, Theta: 0.5, Start: 1, End: 2, Rounds: 1}
	tests := []struct {
		name string
		bids []Bid
		cfg  Config
	}{
		{"bad T", []Bid{valid}, Config{T: 0, K: 1}},
		{"bad K", []Bid{valid}, Config{T: 5, K: 0}},
		{"negative TMax", []Bid{valid}, Config{T: 5, K: 1, TMax: -1}},
		{"no bids", nil, Config{T: 5, K: 1}},
		{"bad theta", []Bid{{Client: 0, Price: 1, Theta: 1.5, Start: 1, End: 2, Rounds: 1}}, Config{T: 5, K: 1}},
		{"bad window", []Bid{{Client: 0, Price: 1, Theta: 0.5, Start: 3, End: 2, Rounds: 1}}, Config{T: 5, K: 1}},
		{"window beyond T", []Bid{{Client: 0, Price: 1, Theta: 0.5, Start: 1, End: 9, Rounds: 1}}, Config{T: 5, K: 1}},
		{"zero price", []Bid{{Client: 0, Price: 0, Theta: 0.5, Start: 1, End: 2, Rounds: 1}}, Config{T: 5, K: 1}},
		{"rounds exceed window", []Bid{{Client: 0, Price: 1, Theta: 0.5, Start: 1, End: 2, Rounds: 3}}, Config{T: 5, K: 1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(context.Background(), tc.bids, tc.cfg, RunOptions{}); err == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
	if _, err := Run(context.Background(), nil, Config{T: 5, K: 1}, RunOptions{}); !errors.Is(err, ErrNoBids) {
		t.Fatalf("want ErrNoBids, got %v", err)
	}
}

func TestRunAuctionPicksCheapestTg(t *testing.T) {
	// Two clients can cover T̂_g = 2 cheaply; covering T̂_g = 3 requires an
	// expensive third participation. A_FL must settle on T̂_g = 2.
	bids := []Bid{
		{Client: 0, Price: 2, Theta: 0.4, Start: 1, End: 2, Rounds: 2},
		{Client: 1, Price: 2, Theta: 0.4, Start: 1, End: 2, Rounds: 2},
		{Client: 2, Price: 100, Theta: 0.4, Start: 1, End: 3, Rounds: 3},
	}
	cfg := Config{T: 3, K: 1}
	res, err := Run(context.Background(), bids, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tg != 2 {
		t.Fatalf("T_g* = %d, want 2", res.Tg)
	}
	if res.Cost != 2 {
		t.Fatalf("cost = %v, want 2 (single client covers both iterations)", res.Cost)
	}
	if err := CheckSolution(bids, res, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunAuctionRespectsThetaCoupling(t *testing.T) {
	// A bid with θ=0.75 requires T_g ≥ 4; with T=3 it can never win.
	bids := []Bid{
		{Client: 0, Price: 1, Theta: 0.75, Start: 1, End: 3, Rounds: 2},
		{Client: 1, Price: 50, Theta: 0.4, Start: 1, End: 3, Rounds: 2},
		{Client: 2, Price: 50, Theta: 0.4, Start: 1, End: 3, Rounds: 2},
	}
	cfg := Config{T: 3, K: 1}
	res, err := Run(context.Background(), bids, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Winners {
		if w.Bid.Client == 0 {
			t.Fatalf("θ=0.75 bid won at T_g=%d despite violating (6b)", res.Tg)
		}
	}
	if err := CheckSolution(bids, res, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunAuctionInfeasible(t *testing.T) {
	// Only one client but K=2: no WDP can ever have enough participants.
	bids := []Bid{
		{Client: 0, Price: 1, Theta: 0.5, Start: 1, End: 4, Rounds: 3},
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 4, Rounds: 2},
	}
	res, err := Run(context.Background(), bids, Config{T: 4, K: 2}, RunOptions{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if res.Feasible {
		t.Fatalf("expected infeasible result, got %+v", res)
	}
	if len(res.WDPs) == 0 {
		t.Fatal("per-T̂_g WDP trace missing")
	}
}

func TestRunAuctionRandomFeasibility(t *testing.T) {
	rng := stats.NewRNG(99)
	cfg := Config{T: 12, K: 2, TMax: 60}
	for trial := 0; trial < 40; trial++ {
		bids := randomAuctionBids(rng, cfg.T, 12)
		res, err := Run(context.Background(), bids, cfg, RunOptions{})
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckSolution(bids, res, cfg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The chosen WDP must be the cheapest feasible one.
		for _, wdp := range res.WDPs {
			if wdp.Feasible && wdp.Cost < res.Cost-1e-9 {
				t.Fatalf("trial %d: WDP at T̂_g=%d cheaper (%v) than chosen (%v)",
					trial, wdp.Tg, wdp.Cost, res.Cost)
			}
		}
	}
}

func TestRunWDP(t *testing.T) {
	bids := exampleBids()
	cfg := Config{T: 3, K: 1}
	res, err := RunWDP(bids, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Cost != 7 {
		t.Fatalf("RunWDP = %+v, want feasible cost 7", res)
	}
	if _, err := RunWDP(bids, 3, Config{T: 0, K: 1}); err == nil {
		t.Fatal("expected config validation error")
	}
	if _, err := RunWDP(nil, 3, cfg); err == nil {
		t.Fatal("expected bid validation error")
	}
}

// randomAuctionBids draws a bid population resembling the paper's setup at
// small scale, with per-round times that always satisfy t_max = 60.
func randomAuctionBids(rng *stats.RNG, maxT, clients int) []Bid {
	var bids []Bid
	for c := 0; c < clients; c++ {
		comp := rng.FloatRange(5, 10)
		comm := rng.FloatRange(10, 15)
		nbids := rng.IntRange(1, 3)
		for j := 0; j < nbids; j++ {
			start := rng.IntRange(1, maxT-1)
			end := rng.IntRange(start+1, maxT)
			bids = append(bids, Bid{
				Client:   c,
				Index:    j,
				Price:    rng.FloatRange(10, 50),
				Theta:    rng.FloatRange(0.3, 0.8),
				Start:    start,
				End:      end,
				Rounds:   rng.IntRange(1, end-start),
				CompTime: comp,
				CommTime: comm,
			})
		}
	}
	return bids
}

func TestResultHelpers(t *testing.T) {
	bids := exampleBids()
	cfg := Config{T: 3, K: 1}
	res, err := Run(context.Background(), bids, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TotalPayment(); got <= 0 {
		t.Fatalf("TotalPayment = %v", got)
	}
	if got := res.ThetaMax(); got != 0.5 {
		t.Fatalf("ThetaMax = %v, want 0.5", got)
	}
	if _, ok := res.WinnerByClient(0); !ok {
		t.Fatal("client 0 should have a winning bid")
	}
	if _, ok := res.WinnerByClient(42); ok {
		t.Fatal("client 42 should not be a winner")
	}
	if s := res.String(); s == "" {
		t.Fatal("empty report")
	}
	if s := (Result{}).String(); s == "" {
		t.Fatal("empty infeasible report")
	}
}

func TestLocalIterFuncs(t *testing.T) {
	if got := PaperLocalIters(0.5); got != 5 {
		t.Fatalf("PaperLocalIters(0.5) = %v, want 5", got)
	}
	if got := PaperLocalIters(0.34); got != 6 {
		t.Fatalf("PaperLocalIters(0.34) = %v, want 6 (floor of 6.6)", got)
	}
	f := LogLocalIters(2)
	if got, want := f(0.5), 2*math.Log(2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogLocalIters(2)(0.5) = %v, want %v", got, want)
	}
	b := Bid{Theta: 0.5, CompTime: 5, CommTime: 10}
	if got := b.PerRoundTime(PaperLocalIters); got != 35 {
		t.Fatalf("PerRoundTime = %v, want 35", got)
	}
}

func TestBidHelpers(t *testing.T) {
	b := Bid{Client: 1, Index: 2, Price: 10, TrueCost: 8, Theta: 0.5, Start: 2, End: 6, Rounds: 3}
	if got := b.Cost(); got != 8 {
		t.Fatalf("Cost = %v, want 8 (TrueCost)", got)
	}
	b.TrueCost = 0
	if got := b.Cost(); got != 10 {
		t.Fatalf("Cost = %v, want 10 (Price fallback)", got)
	}
	if got := b.WindowLen(); got != 5 {
		t.Fatalf("WindowLen = %v, want 5", got)
	}
	if b.String() == "" {
		t.Fatal("empty String")
	}
}

func TestBidValidateBranches(t *testing.T) {
	base := Bid{Client: 0, Price: 1, Theta: 0.5, Start: 1, End: 3, Rounds: 2, CompTime: 1, CommTime: 1}
	if err := base.Validate(5); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Bid){
		func(b *Bid) { b.Client = -1 },
		func(b *Bid) { b.Price = 0 },
		func(b *Bid) { b.TrueCost = -1 },
		func(b *Bid) { b.Theta = 0 },
		func(b *Bid) { b.Theta = 1 },
		func(b *Bid) { b.Start = 0 },
		func(b *Bid) { b.End = 9 },
		func(b *Bid) { b.Start, b.End = 3, 2 },
		func(b *Bid) { b.Rounds = 0 },
		func(b *Bid) { b.Rounds = 5 },
		func(b *Bid) { b.CompTime = -1 },
		func(b *Bid) { b.CommTime = -1 },
	}
	for i, m := range mutations {
		b := base
		m(&b)
		if err := b.Validate(5); err == nil {
			t.Fatalf("mutation %d not rejected: %+v", i, b)
		}
	}
}

func TestWDPResultTotalPayment(t *testing.T) {
	bids := exampleBids()
	res := SolveWDP(bids, []int{0, 1, 2}, 3, Config{T: 3, K: 1})
	if got := res.TotalPayment(); got != 8.5 {
		t.Fatalf("WDP total payment = %v, want 2.5+6", got)
	}
}

func TestDualBound(t *testing.T) {
	d := Dual{Objective: 3, TightObjective: 5}
	if d.Bound() != 5 {
		t.Fatalf("Bound = %v", d.Bound())
	}
	d.TightObjective = 1
	if d.Bound() != 3 {
		t.Fatalf("Bound = %v", d.Bound())
	}
}

func TestConfigLocalItersOverride(t *testing.T) {
	cfg := Config{T: 5, K: 1, TMax: 100, LocalIters: LogLocalIters(2)}
	bids := []Bid{{Client: 0, Price: 1, Theta: 0.5, Start: 1, End: 3, Rounds: 1, CompTime: 5, CommTime: 10}}
	// With η=2: T_l = 2·ln2 ≈ 1.386 → per-round ≈ 16.9 ≤ 100 → qualified.
	if got := Qualified(bids, 3, cfg); len(got) != 1 {
		t.Fatalf("Qualified with custom LocalIters = %v", got)
	}
	// A tiny budget rejects the same bid.
	cfg.TMax = 10
	if got := Qualified(bids, 3, cfg); len(got) != 0 {
		t.Fatalf("Qualified with tight t_max = %v", got)
	}
}
