package colgen

import (
	"math"
	"testing"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/exact"
	"github.com/fedauction/afl/internal/stats"
	"github.com/fedauction/afl/internal/workload"
)

// The differential suite promised by the SetLowerBound doc: the row
// entry point and the BidSet-native loop must report bit-identical
// results, a shared compiled handle must be reusable across T̂_g values
// without drift, and the Certifier adapter's bound must stay valid
// against the integral optimum.

func sameResult(a, b Result) bool {
	eq := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return x == y
	}
	return a.Feasible == b.Feasible && a.Converged == b.Converged &&
		eq(a.LowerBound, b.LowerBound) && eq(a.LPValue, b.LPValue) &&
		a.Columns == b.Columns && a.Iterations == b.Iterations
}

func TestSetLowerBoundMatchesRowPath(t *testing.T) {
	rng := stats.NewRNG(91)
	for _, opts := range []Options{
		{},
		{MaxIterations: 2, MaxColumnsPerIter: 3, MaxColumns: 16},
	} {
		for trial := 0; trial < 60; trial++ {
			bids, tg, k := randomInstance(rng)
			cfg := core.Config{T: tg, K: k}
			qual := allIdx(bids)
			row := LowerBound(bids, qual, tg, cfg, opts)
			native := SetLowerBound(core.CompileBids(bids), qual, tg, cfg, opts)
			if !sameResult(row, native) {
				t.Fatalf("opts %+v trial %d: row %+v ≠ native %+v", opts, trial, row, native)
			}
		}
	}
}

func TestSetLowerBoundSharedHandle(t *testing.T) {
	// One compiled handle, many (tg, qualified) solves: results must be
	// identical to fresh compiles — the loop must not leave state behind
	// in the set.
	rng := stats.NewRNG(92)
	for trial := 0; trial < 20; trial++ {
		bids, tg, k := randomInstance(rng)
		cfg := core.Config{T: tg, K: k}
		qual := allIdx(bids)
		shared := core.CompileBids(bids)
		for pass := 0; pass < 2; pass++ {
			for cand := 1; cand <= tg; cand++ {
				got := SetLowerBound(shared, qual, cand, cfg, Options{})
				want := SetLowerBound(core.CompileBids(bids), qual, cand, cfg, Options{})
				if !sameResult(got, want) {
					t.Fatalf("trial %d pass %d tg %d: shared %+v ≠ fresh %+v", trial, pass, cand, got, want)
				}
			}
		}
	}
}

func TestSetLowerBoundNeverExceedsOptimum(t *testing.T) {
	rng := stats.NewRNG(93)
	checked := 0
	for trial := 0; trial < 60; trial++ {
		bids, tg, k := randomInstance(rng)
		cfg := core.Config{T: tg, K: k}
		qual := allIdx(bids)
		set := core.CompileBids(bids)
		res := SetLowerBound(set, qual, tg, cfg, Options{})
		opt := exact.SolveWDP(bids, qual, tg, cfg, exact.Options{})
		if !res.Feasible {
			continue
		}
		checked++
		if !opt.Feasible {
			t.Fatalf("trial %d: native feasible but exact infeasible", trial)
		}
		if res.LowerBound > opt.Cost+1e-5 {
			t.Fatalf("trial %d: native LB %v exceeds optimum %v", trial, res.LowerBound, opt.Cost)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d feasible instances", checked)
	}
}

func TestCertifierBoundIsValid(t *testing.T) {
	rng := stats.NewRNG(94)
	checked := 0
	for trial := 0; trial < 60; trial++ {
		bids, tg, k := randomInstance(rng)
		cfg := core.Config{T: tg, K: k}
		qual := allIdx(bids)
		set := core.CompileBids(bids)
		seed := core.SolveWDPSet(set, qual, tg, cfg)
		out := Certifier{}.CertifyWDP(set, qual, tg, cfg, seed)
		if !seed.Feasible {
			if out.Valid {
				t.Fatalf("trial %d: valid certificate for infeasible seed", trial)
			}
			continue
		}
		if !out.Valid {
			t.Fatalf("trial %d: no certificate for feasible seed", trial)
		}
		checked++
		opt := exact.SolveWDP(bids, qual, tg, cfg, exact.Options{})
		if out.LowerBound > opt.Cost+1e-5 {
			t.Fatalf("trial %d: certifier LB %v exceeds optimum %v", trial, out.LowerBound, opt.Cost)
		}
		if out.LowerBound > seed.Cost+1e-5 {
			t.Fatalf("trial %d: certifier LB %v exceeds greedy cost %v", trial, out.LowerBound, seed.Cost)
		}
		for _, c := range out.Columns {
			if c.Value <= 0 {
				t.Fatalf("trial %d: non-positive column weight %v", trial, c.Value)
			}
			if c.Bid < 0 || c.Bid >= set.Len() {
				t.Fatalf("trial %d: column bid %d out of range", trial, c.Bid)
			}
			for _, slot := range c.Slots {
				if slot < 1 || slot > tg {
					t.Fatalf("trial %d: column slot %d outside [1, %d]", trial, slot, tg)
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d certified instances", checked)
	}
}

func TestCertifierExplicitOptsMatchNative(t *testing.T) {
	// With explicit caps the adapter must run the same loop as
	// SetLowerBound — same bound, same convergence verdict.
	rng := stats.NewRNG(95)
	opts := Options{MaxIterations: 5, MaxColumnsPerIter: 8, MaxColumns: 64}
	for trial := 0; trial < 40; trial++ {
		bids, tg, k := randomInstance(rng)
		cfg := core.Config{T: tg, K: k}
		qual := allIdx(bids)
		set := core.CompileBids(bids)
		seed := core.SolveWDPSet(set, qual, tg, cfg)
		if !seed.Feasible {
			continue
		}
		out := Certifier{Opts: opts}.CertifyWDP(set, qual, tg, cfg, seed)
		res := SetLowerBound(set, qual, tg, cfg, opts)
		if !out.Valid || !res.Feasible {
			t.Fatalf("trial %d: valid=%v feasible=%v", trial, out.Valid, res.Feasible)
		}
		if out.LowerBound != res.LowerBound || out.Converged != res.Converged {
			t.Fatalf("trial %d: certifier (%v, %v) ≠ native (%v, %v)",
				trial, out.LowerBound, out.Converged, res.LowerBound, res.Converged)
		}
	}
}

// TestLowerBoundBitStable repeats capped column-generation runs on
// identical inputs: the Lagrangian fallback that a cap selects sums one
// reduced cost per client, and that sum must not depend on map iteration
// order, so every call — SetLowerBound and the Certifier alike — returns
// one bit pattern.
func TestLowerBoundBitStable(t *testing.T) {
	opts := Options{MaxIterations: 3, MaxColumnsPerIter: 16, MaxColumns: 200}
	capped := 0
	for seed := int64(3); seed <= 8; seed++ {
		wp := workload.NewDefaultParams()
		wp.Clients, wp.BidsPerUser, wp.T, wp.K, wp.Seed = 150, 3, 20, 8, seed
		bids, err := workload.Generate(wp)
		if err != nil {
			t.Fatal(err)
		}
		cfg := wp.Config()
		set := core.CompileBids(bids)
		qual := core.Qualified(bids, cfg.T, cfg)
		seedWDP := core.SolveWDPSet(set, qual, cfg.T, cfg)
		if !seedWDP.Feasible {
			t.Fatalf("seed %d: infeasible population", seed)
		}
		first := SetLowerBound(set, qual, cfg.T, cfg, opts)
		if !first.Converged {
			capped++
		}
		for call := 0; call < 12; call++ {
			got := SetLowerBound(set, qual, cfg.T, cfg, opts)
			if math.Float64bits(got.LowerBound) != math.Float64bits(first.LowerBound) {
				t.Fatalf("seed %d call %d: SetLowerBound %v (%#x), first call %v (%#x)", seed, call,
					got.LowerBound, math.Float64bits(got.LowerBound), first.LowerBound, math.Float64bits(first.LowerBound))
			}
			out := Certifier{Opts: opts}.CertifyWDP(set, qual, cfg.T, cfg, seedWDP)
			if math.Float64bits(out.LowerBound) != math.Float64bits(first.LowerBound) {
				t.Fatalf("seed %d call %d: CertifyWDP %v (%#x), SetLowerBound %v (%#x)", seed, call,
					out.LowerBound, math.Float64bits(out.LowerBound), first.LowerBound, math.Float64bits(first.LowerBound))
			}
		}
	}
	if capped == 0 {
		t.Fatal("no run hit a cap: the fallback sum went unexercised")
	}
}
