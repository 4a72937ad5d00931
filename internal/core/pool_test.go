package core_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/workload"
)

// poolWorkload draws a population for the engine-pool tests.
func poolWorkload(t *testing.T, seed int64, clients, maxT, k int) ([]core.Bid, core.Config) {
	t.Helper()
	p := workload.NewDefaultParams()
	p.Seed = seed
	p.Clients = clients
	p.T = maxT
	p.K = k
	bids, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	return bids, cfg
}

// TestAcquireEngineMatchesNewEngine runs a sequence of differently-seeded
// populations through one recycled arena chain (compile → acquire → run →
// release, so each acquisition after the first reuses the previous
// instance's arena) and requires bit-identity with a fresh NewEngine on
// every instance. Any state bleeding across rebuilds — a stale qualification
// prefix, a leftover client-group entry — shows up as a Result diff.
func TestAcquireEngineMatchesNewEngine(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		bids, cfg := poolWorkload(t, seed, 60+int(seed)*7, 10+int(seed), 3)
		fresh, err := core.NewEngine(bids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := fresh.RunCtx(ctx, core.RunOptions{})

		pooled, err := core.AcquireEngineSet(core.CompileBids(bids), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := pooled.RunCtx(ctx, core.RunOptions{})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: pooled err %v, fresh err %v", seed, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: pooled engine result diverges from NewEngine", seed)
		}
		if q1, q2 := pooled.QualifiedAt(cfg.T), fresh.QualifiedAt(cfg.T); !reflect.DeepEqual(q1, q2) {
			t.Fatalf("seed %d: qualified sets diverge: %v vs %v", seed, q1, q2)
		}
		pooled.Release()
	}
}

// TestPooledEngineMisreportProbe is the no-state-bleed probe: a client
// misreports its price, the misreported population runs on a pooled
// engine whose arena just solved the truthful population, and the outcome
// must match a fresh engine on the misreported population bit-for-bit.
// If the recycled arena leaked anything from the truthful run — the old
// price through a stale grouping, the old qualification order — the
// misreported auction would come out different, and with it the
// truthfulness guarantee of the batch layer.
func TestPooledEngineMisreportProbe(t *testing.T) {
	ctx := context.Background()
	bids, cfg := poolWorkload(t, 42, 80, 12, 3)

	truthful, err := core.AcquireEngineSet(core.CompileBids(bids), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := truthful.RunCtx(ctx, core.RunOptions{})
	if err != nil || !base.Feasible {
		t.Fatalf("truthful run: %+v, %v", base.Feasible, err)
	}
	if len(base.Winners) == 0 {
		t.Fatal("no winners to probe")
	}
	win := base.Winners[0]
	truthful.Release()

	// Misreport: the first winner claims a higher price.
	misreported := make([]core.Bid, len(bids))
	copy(misreported, bids)
	misreported[win.BidIndex].Price *= 1.05

	fresh, err := core.NewEngine(misreported, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := fresh.RunCtx(ctx, core.RunOptions{})

	// The pooled acquisition reuses the arena the truthful run just
	// released (same shape class, single goroutine).
	probe, err := core.AcquireEngineSet(core.CompileBids(misreported), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := probe.RunCtx(ctx, core.RunOptions{})
	probe.Release()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("probe err %v, fresh err %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("misreport probe on a reused engine diverges from a fresh engine")
	}

	// Truthfulness invariant on the reused path: if the misreporting
	// winner still wins, its payment must not move (critical-value
	// payments are independent of the winner's own claim as long as the
	// claim stays below the critical value).
	for _, w := range got.Winners {
		if w.BidIndex == win.BidIndex && got.Tg == base.Tg && w.Payment != win.Payment {
			t.Fatalf("payment moved under misreport on reused engine: %v -> %v", win.Payment, w.Payment)
		}
	}
}

// TestReacquireEngineRebindsInPlace drives one engine through a chain of
// differently-seeded instances with ReacquireEngineSet — same shape class,
// so every step after the first rebinds the held arena without touching
// the pool — and requires bit-identity with a fresh NewEngine per
// instance.
// It then crosses a shape boundary (fallback to Release + Acquire) and an
// invalid config (prev released, nil engine back) and checks the chain
// recovers.
func TestReacquireEngineRebindsInPlace(t *testing.T) {
	ctx := context.Background()
	var eng *core.Engine
	var err error
	for seed := int64(1); seed <= 6; seed++ {
		bids, cfg := poolWorkload(t, seed, 60, 12, 3)
		fresh, ferr := core.NewEngine(bids, cfg)
		if ferr != nil {
			t.Fatal(ferr)
		}
		want, wantErr := fresh.RunCtx(ctx, core.RunOptions{})

		eng, err = core.ReacquireEngineSet(eng, core.CompileBids(bids), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := eng.RunCtx(ctx, core.RunOptions{})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: reacquired err %v, fresh err %v", seed, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reacquired engine diverges from NewEngine", seed)
		}
	}

	// Shape-class crossing: a much larger horizon lands in another pool.
	bids, cfg := poolWorkload(t, 99, 200, 40, 5)
	eng, err = core.ReacquireEngineSet(eng, core.CompileBids(bids), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewEngine(bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.RunCtx(ctx, core.RunOptions{})
	if got, _ := eng.RunCtx(ctx, core.RunOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatal("shape-crossing reacquire diverges from NewEngine")
	}

	// Validation error: prev is released, nil comes back, and the chain
	// recovers on the next valid instance.
	bad := cfg
	bad.T = 0
	if eng, err = core.ReacquireEngineSet(eng, core.CompileBids(bids), bad); err == nil || eng != nil {
		t.Fatalf("invalid config: engine %v, err %v", eng, err)
	}
	bids, cfg = poolWorkload(t, 100, 60, 12, 3)
	eng, err = core.ReacquireEngineSet(eng, core.CompileBids(bids), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunCtx(ctx, core.RunOptions{}); err != nil {
		t.Fatalf("post-recovery instance: %v", err)
	}
	eng.Release()
}

// TestReleaseIdempotent checks the Release contract: double release and
// releasing a NewEngine-built engine are no-ops.
func TestReleaseIdempotent(t *testing.T) {
	ctx := context.Background()
	bids, cfg := poolWorkload(t, 7, 40, 12, 2)
	eng, err := core.AcquireEngineSet(core.CompileBids(bids), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunCtx(ctx, core.RunOptions{}); err != nil {
		t.Fatalf("pooled engine: %v", err)
	}
	eng.Release()
	eng.Release() // second release is a no-op

	plain, err := core.NewEngine(bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain.Release() // non-pooled engines have no arena
	if _, err := plain.RunCtx(ctx, core.RunOptions{}); err != nil {
		t.Fatalf("NewEngine unusable after no-op Release: %v", err)
	}
}
