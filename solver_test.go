package afl_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/fedauction/afl"
)

// Facade-level solver-tier properties: the exact tier stays certificate-
// free and bit-identical to the historical entry points, both approximate
// tiers certify against the full-enumeration optimum with ratio ≥ 1, and
// the tier a durable market logs is the tier its recovery re-solves under.

func TestRunSolverTiers(t *testing.T) {
	bids, cfg := testWorkload(t, 120, 16, 3)
	exact, err := afl.Run(context.Background(), bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cert != nil {
		t.Fatalf("exact tier attached a certificate: %+v", exact.Cert)
	}

	for _, tier := range []afl.Solver{afl.SolverCoarseFine, afl.SolverLPRound} {
		res, err := afl.Run(context.Background(), bids, cfg, afl.WithSolver(tier))
		if err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
		c := res.Cert
		if c == nil {
			t.Fatalf("%v: no certificate", tier)
		}
		if c.Solver != tier {
			t.Fatalf("%v: certificate labeled %v", tier, c.Solver)
		}
		// LowerBound ≤ min_tg OPT(tg) ≤ exact sweep cost ≤ approximate cost.
		if c.LowerBound > exact.Cost+1e-7 {
			t.Fatalf("%v: LB %v exceeds exact cost %v", tier, c.LowerBound, exact.Cost)
		}
		if res.Cost < exact.Cost-1e-7 {
			t.Fatalf("%v: approximate cost %v beats exact %v", tier, res.Cost, exact.Cost)
		}
		if math.IsInf(c.Ratio, 1) || c.Ratio < 1-1e-9 {
			t.Fatalf("%v: ratio %v", tier, c.Ratio)
		}
		if c.Solved > c.Candidates {
			t.Fatalf("%v: solved %d of %d candidates", tier, c.Solved, c.Candidates)
		}
		// The set-handle entry must agree with the row entry under every tier.
		set := afl.CompileBids(bids)
		sres, err := afl.RunSet(context.Background(), set, cfg, afl.WithSolver(tier))
		if err != nil {
			t.Fatalf("%v: RunSet: %v", tier, err)
		}
		if !reflect.DeepEqual(res, sres) {
			t.Fatalf("%v: RunSet diverges from Run", tier)
		}
	}
}

func TestRunBatchSolverOverride(t *testing.T) {
	bids, cfg := testWorkload(t, 80, 12, 2)
	instances := []afl.Instance{{Bids: bids, Cfg: cfg}, {Bids: bids, Cfg: cfg}}
	outs, err := afl.RunBatch(context.Background(), instances, afl.WithSolver(afl.SolverCoarseFine))
	if err != nil {
		t.Fatal(err)
	}
	want, err := afl.Run(context.Background(), bids, cfg, afl.WithSolver(afl.SolverCoarseFine))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
		if !reflect.DeepEqual(o.Result, want) {
			t.Fatalf("outcome %d diverges from single-auction coarse-fine run", i)
		}
	}
	// Without the option, per-instance tiers are preserved.
	instances[1].Solver = afl.SolverCoarseFine
	outs, err = afl.RunBatch(context.Background(), instances)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Result.Cert != nil {
		t.Fatal("instance 0 (exact) gained a certificate")
	}
	if !reflect.DeepEqual(outs[1].Result, want) {
		t.Fatal("instance 1 (coarse-fine) diverges")
	}
}

func TestMarketPersistsSolverTier(t *testing.T) {
	bids, cfg := testWorkload(t, 60, 12, 2)
	dir := t.TempDir()
	ctx := context.Background()

	m, err := afl.OpenMarket(ctx, afl.WithDurability(dir),
		afl.WithSolver(afl.SolverCoarseFine))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := m.Submit(ctx, "client-a", afl.Instance{Bids: bids, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Wait(ctx, seq)
	if err != nil {
		t.Fatal(err)
	}
	if out.Solver != afl.SolverCoarseFine.String() {
		t.Fatalf("outcome solver = %q, want %q", out.Solver, afl.SolverCoarseFine)
	}
	if out.CertLowerBound <= 0 || out.CertRatio < 1-1e-9 {
		t.Fatalf("outcome certificate fields: LB %v ratio %v", out.CertLowerBound, out.CertRatio)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery restores the committed outcome verbatim — certificate
	// provenance included — even when the reopened market's own solver
	// configuration differs.
	m2, err := afl.OpenMarket(ctx, afl.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, ok, err := m2.Outcome(seq)
	if err != nil || !ok {
		t.Fatalf("recovered outcome: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, out) {
		t.Fatalf("recovered outcome diverges:\nbefore: %+v\nafter:  %+v", out, got)
	}
}
