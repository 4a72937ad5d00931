package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// wdpInstance is a fuzzable WDP instance with a custom quick.Generator so
// testing/quick drives structurally valid auctions.
type wdpInstance struct {
	Bids []Bid
	Tg   int
	K    int
}

var _ quick.Generator = wdpInstance{}

// Generate implements quick.Generator.
func (wdpInstance) Generate(r *rand.Rand, size int) reflect.Value {
	tg := 2 + r.Intn(10)
	k := 1 + r.Intn(3)
	clients := k + 1 + r.Intn(min(size, 12)+1)
	inst := wdpInstance{Tg: tg, K: k}
	for c := 0; c < clients; c++ {
		n := 1 + r.Intn(2)
		for j := 0; j < n; j++ {
			start := 1 + r.Intn(tg)
			end := start + r.Intn(tg-start+1)
			inst.Bids = append(inst.Bids, Bid{
				Client: c,
				Index:  j,
				Price:  0.5 + 50*r.Float64(),
				Theta:  0.05 + 0.9*r.Float64(),
				Start:  start,
				End:    end,
				Rounds: 1 + r.Intn(end-start+1),
			})
		}
	}
	return reflect.ValueOf(inst)
}

// TestQuickWDPInvariants drives SolveWDP with generated instances and
// checks the full invariant bundle on every feasible outcome: ILP (6)
// constraints, individual rationality, the Lemma 5 certificate, and
// non-negative duals.
func TestQuickWDPInvariants(t *testing.T) {
	f := func(inst wdpInstance) bool {
		cfg := Config{T: inst.Tg, K: inst.K}
		qual := Qualified(inst.Bids, inst.Tg, cfg)
		res := SolveWDP(inst.Bids, qual, inst.Tg, cfg)
		if !res.Feasible {
			return true
		}
		if err := CheckWDPSolution(inst.Bids, res, cfg); err != nil {
			t.Logf("invalid solution: %v", err)
			return false
		}
		for _, w := range res.Winners {
			if w.Payment < w.Bid.Price-1e-9 {
				t.Logf("IR violated: %v paid %v", w.Bid, w.Payment)
				return false
			}
		}
		d := res.Dual
		if res.Cost > d.RatioBound*d.Objective+1e-6 {
			t.Logf("Lemma 5 violated: P=%v > τ·D=%v", res.Cost, d.RatioBound*d.Objective)
			return false
		}
		if d.TightObjective < -1e-12 || d.Objective < -1e-12 {
			t.Logf("negative dual objective")
			return false
		}
		for _, g := range d.G {
			if g < -1e-12 {
				t.Logf("negative g(t)")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAuctionInvariants drives the full A_FL enumeration with
// generated instances: the chosen T̂_g must be the cheapest feasible WDP
// and the solution must satisfy every constraint including (6b)/(6h).
func TestQuickAuctionInvariants(t *testing.T) {
	f := func(inst wdpInstance) bool {
		cfg := Config{T: inst.Tg, K: inst.K}
		res, err := Run(context.Background(), inst.Bids, cfg, RunOptions{})
		if errors.Is(err, ErrInfeasible) {
			return true
		}
		if err != nil {
			t.Logf("unexpected error: %v", err)
			return false
		}
		if err := CheckSolution(inst.Bids, res, cfg); err != nil {
			t.Logf("invalid solution: %v", err)
			return false
		}
		for _, wdp := range res.WDPs {
			if wdp.Feasible && wdp.Cost < res.Cost-1e-9 {
				t.Logf("non-minimal T̂_g chosen")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
