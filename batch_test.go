package afl_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/fedauction/afl"
)

// batchTestInstances draws n differently-seeded instances of the same
// population shape.
func batchTestInstances(t testing.TB, n, clients, maxT, k int) []afl.Instance {
	t.Helper()
	insts := make([]afl.Instance, n)
	for i := range insts {
		p := afl.DefaultWorkloadParams()
		p.Seed = int64(9000 + i)
		p.Clients = clients
		p.T = maxT
		p.K = k
		bids, err := afl.GenerateWorkload(p)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = afl.Instance{Bids: bids, Cfg: p.Config()}
	}
	return insts
}

// TestRunBatchMatchesRun is the facade-level differential test required
// by the throughput redesign: for workers in {1, 4}, RunBatch outcomes
// must be bit-identical to solving each instance alone through the
// serial afl.Run entry point — winners, payments, per-T̂_g diagnostics,
// everything.
func TestRunBatchMatchesRun(t *testing.T) {
	insts := batchTestInstances(t, 10, 60, 12, 3)
	want := make([]afl.Result, len(insts))
	for i, inst := range insts {
		res, err := afl.Run(context.Background(), inst.Bids, inst.Cfg)
		if err != nil {
			t.Fatalf("serial instance %d: %v", i, err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 4} {
		out, err := afl.RunBatch(context.Background(), insts, afl.WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, oc := range out {
			if oc.Err != nil {
				t.Fatalf("workers=%d instance %d: %v", workers, i, oc.Err)
			}
			if oc.Index != i {
				t.Fatalf("workers=%d: outcome %d carries index %d", workers, i, oc.Index)
			}
			if !reflect.DeepEqual(oc.Result, want[i]) {
				t.Fatalf("workers=%d instance %d: RunBatch diverges from serial Run", workers, i)
			}
		}
	}
}

// TestRunBatchPaymentRuleOverride checks that WithPaymentRule applies to
// every instance of the batch without mutating the caller's slice.
func TestRunBatchPaymentRuleOverride(t *testing.T) {
	insts := batchTestInstances(t, 2, 40, 12, 3)
	out, err := afl.RunBatch(context.Background(), insts, afl.WithWorkers(1),
		afl.WithPaymentRule(afl.RulePayBid))
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range out {
		if oc.Err != nil {
			t.Fatalf("instance %d: %v", i, oc.Err)
		}
		if insts[i].Cfg.PaymentRule != afl.RuleCritical {
			t.Fatalf("instance %d: caller's Config mutated by the override", i)
		}
	}
}

// TestRunBatchGoldenTrace pins the full interleaved event stream of a
// single-worker two-instance batch on a deterministic clock: the batch
// envelope (batch_started, queue/dequeue pairs, batch_done) wrapping
// each instance's unchanged per-auction phase trace. Any drift in either
// layer's contract — or in how they interleave — shows up as a diff.
func TestRunBatchGoldenTrace(t *testing.T) {
	bids := []afl.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	cfg := afl.Config{T: 3, K: 1}
	insts := []afl.Instance{{Bids: bids, Cfg: cfg}, {Bids: bids, Cfg: cfg}}
	tr := &afl.Trace{}
	base := time.Unix(0, 0).UTC()
	calls := 0
	now := func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * time.Millisecond)
	}
	out, err := afl.RunBatch(context.Background(), insts,
		afl.WithWorkers(1), afl.WithObserver(tr), afl.WithNow(now))
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range out {
		if oc.Err != nil || !oc.Result.Feasible {
			t.Fatalf("instance %d: %+v, %v", i, oc.Result.Feasible, oc.Err)
		}
	}
	const auction = `auction_started tg=3 round=2 value=3 ok=false
wdp_solved tg=2 value=7 ok=true dur=1ms
wdp_solved tg=3 value=7 ok=true dur=1ms
winner_accepted tg=2 client=0 bid=0 value=2 ok=true
payment_computed tg=2 client=0 bid=0 value=2.5 ok=true
winner_accepted tg=2 client=2 bid=2 value=5 ok=true
payment_computed tg=2 client=2 bid=2 value=5 ok=true
auction_done tg=2 value=7 ok=true dur=5ms
`
	want := `batch_started round=1 value=2 ok=false
auction_queued bid=0 value=1 ok=false
auction_queued bid=1 value=2 ok=false
auction_dequeued bid=0 value=1 ok=false
` + auction + `auction_dequeued bid=1 ok=false
` + auction + `batch_done value=2 ok=true dur=13ms
`
	if got := tr.String(); got != want {
		t.Fatalf("batch trace mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRunBatchNilObserverAllocGuard extends the zero-cost-when-nil
// guarantee to the batch layer: an uninstrumented RunBatch must cost,
// per auction, no more than modest overhead on top of the engine_reuse
// hot-path baseline (see allocBaseline). The pooled arenas are what make
// this hold — without them every instance would pay a full engine
// construction (the seed baseline, ~18x more allocations).
func TestRunBatchNilObserverAllocGuard(t *testing.T) {
	const m = 4
	// Mirror BenchmarkSweepEngineReuse/I100's configuration (T=50, K=10)
	// so the engine_reuse baseline is comparable.
	insts := batchTestInstances(t, m, 100, 50, 10)
	ctx := context.Background()
	if _, err := afl.RunBatch(ctx, insts, afl.WithWorkers(1)); err != nil {
		t.Fatal(err) // warm the shape pool
	}
	// A GC mid-measurement flushes the just-warmed shape pools and one
	// batch pays full arena rebuilds, tripping the guard spuriously;
	// take the best of a few batches so the guard measures the pooled
	// hot path (see the matching note in TestNilObserverAllocGuard).
	perBatch := minAllocsPerRun(3, 3, func() {
		if _, err := afl.RunBatch(ctx, insts, afl.WithWorkers(1)); err != nil {
			t.Error(err)
		}
	})
	perAuction := perBatch / m
	// The batch path adds an arena rebuild (qualification delta
	// re-derivation into recycled capacity) per auction on top of the
	// solve itself; allow half again over the single-engine baseline plus
	// fixed scheduler overhead.
	base := allocBaseline(t, "engine_reuse", 100)
	if limit := base*1.5 + 256; perAuction > limit {
		t.Fatalf("nil-observer batch allocates %.0f/auction, engine_reuse baseline %.0f (limit %.0f)", perAuction, base, limit)
	}
}

// TestServiceFacade exercises the root-level Service surface: options
// plumbing (WithQueue, WithWorkers), Submit/Results round-trips matching
// serial Run, and the ErrServiceClosed sentinel.
func TestServiceFacade(t *testing.T) {
	insts := batchTestInstances(t, 6, 40, 12, 3)
	svc := afl.NewService(context.Background(), afl.WithWorkers(2), afl.WithQueue(4))
	done := make(chan map[int]afl.Result)
	go func() {
		got := make(map[int]afl.Result, len(insts))
		for oc := range svc.Results() {
			if oc.Err != nil {
				t.Errorf("instance %d: %v", oc.Index, oc.Err)
			}
			got[oc.Index] = oc.Result
		}
		done <- got
	}()
	for i, inst := range insts {
		idx, err := svc.Submit(context.Background(), inst)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if idx != i {
			t.Fatalf("submit %d: sequence number %d", i, idx)
		}
	}
	svc.Close()
	got := <-done
	if len(got) != len(insts) {
		t.Fatalf("%d outcomes for %d submissions", len(got), len(insts))
	}
	for i, inst := range insts {
		want, err := afl.Run(context.Background(), inst.Bids, inst.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("instance %d: service result diverges from serial Run", i)
		}
	}
	if _, err := svc.Submit(context.Background(), insts[0]); !errors.Is(err, afl.ErrServiceClosed) {
		t.Fatalf("submit after close: %v, want ErrServiceClosed", err)
	}
}
