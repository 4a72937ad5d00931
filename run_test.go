package afl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/fedauction/afl"
)

func testWorkload(t *testing.T, clients, maxT, k int) ([]afl.Bid, afl.Config) {
	t.Helper()
	p := afl.DefaultWorkloadParams()
	p.Clients = clients
	p.T = maxT
	p.K = k
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	return bids, p.Config()
}

// TestRunIdenticalAcrossWorkers locks in the worker-count contract of
// the auction entry points: Run and RunSet return bit-identical results
// at every width — inline (0, 1), pooled (2, 4) and GOMAXPROCS (−1) —
// under the paper's payment rule and under exact-critical pricing, whose
// per-winner bisections fan out over the same workers.
func TestRunIdenticalAcrossWorkers(t *testing.T) {
	bids, cfg := testWorkload(t, 80, 12, 3)
	set := afl.CompileBids(bids)
	ctx := context.Background()
	for _, rule := range []afl.PaymentRule{afl.RuleCritical, afl.RuleExactCritical} {
		want, err := afl.Run(ctx, bids, cfg, afl.WithPaymentRule(rule))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 4, -1} {
			got, err := afl.Run(ctx, bids, cfg, afl.WithPaymentRule(rule), afl.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%v: Run(workers=%d): %v", rule, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: Run(workers=%d) differs from Run(workers=0)", rule, workers)
			}
			got, err = afl.RunSet(ctx, set, cfg, afl.WithPaymentRule(rule), afl.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%v: RunSet(workers=%d): %v", rule, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: RunSet(workers=%d) differs from Run(workers=0)", rule, workers)
			}
		}
	}
}

// TestRunWithPaymentRule checks that the per-call payment-rule override
// matches configuring the rule up front and leaves the caller's Config
// untouched.
func TestRunWithPaymentRule(t *testing.T) {
	bids, cfg := testWorkload(t, 60, 10, 3)
	override, err := afl.Run(context.Background(), bids, cfg, afl.WithPaymentRule(afl.RulePayBid))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PaymentRule != afl.RuleCritical {
		t.Fatalf("WithPaymentRule mutated the caller's Config: %v", cfg.PaymentRule)
	}
	direct := cfg
	direct.PaymentRule = afl.RulePayBid
	want, err := afl.Run(context.Background(), bids, direct)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(override, want) {
		t.Fatal("WithPaymentRule differs from configuring the rule in Config")
	}
}

// TestRunSentinels exercises the error surface of the redesigned facade:
// ErrNoBids for an empty population, ErrInfeasible (with the diagnostic
// Result preserved) when no T̂_g admits coverage, and ErrCanceled (also
// matching the context cause) for a pre-canceled context.
func TestRunSentinels(t *testing.T) {
	cfg := afl.Config{T: 3, K: 1}
	if _, err := afl.Run(context.Background(), nil, cfg); !errors.Is(err, afl.ErrNoBids) {
		t.Fatalf("empty population: got %v, want ErrNoBids", err)
	}

	// A single bid that can never cover iteration 3 of any candidate
	// T̂_g ≥ T_0 = 2: infeasible at every horizon.
	bids := []afl.Bid{{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1}}
	res, err := afl.Run(context.Background(), bids, cfg)
	if !errors.Is(err, afl.ErrInfeasible) {
		t.Fatalf("infeasible population: got %v, want ErrInfeasible", err)
	}
	if res.Feasible {
		t.Fatal("ErrInfeasible with a feasible Result")
	}
	if len(res.WDPs) == 0 {
		t.Fatal("ErrInfeasible dropped the per-T̂_g diagnostics")
	}

	feasible := []afl.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := afl.Run(ctx, feasible, cfg); !errors.Is(err, afl.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: got %v, want ErrCanceled ∧ context.Canceled", err)
	}
}

// TestRunCancellationMidSweep cancels the context from inside the
// observer after the first WDP solve and checks that partial work is
// abandoned, the sentinel surface holds, and the worker pool does not
// leak goroutines.
func TestRunCancellationMidSweep(t *testing.T) {
	bids, cfg := testWorkload(t, 80, 12, 3)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		var solved int
		var mu sync.Mutex
		o := afl.ObserverFunc(func(e afl.Event) {
			if e.Kind == afl.EvWDPSolved {
				mu.Lock()
				solved++
				mu.Unlock()
				once.Do(cancel)
			}
		})
		before := runtime.NumGoroutine()
		res, err := afl.Run(ctx, bids, cfg, afl.WithWorkers(workers), afl.WithObserver(o))
		if !errors.Is(err, afl.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want ErrCanceled ∧ context.Canceled", workers, err)
		}
		if res.Feasible {
			t.Fatalf("workers=%d: canceled sweep returned a committed result", workers)
		}
		mu.Lock()
		n := solved
		mu.Unlock()
		// t0=2 leaves 11 candidate T̂_g values; cancellation after the
		// first solve must abandon at least some of them (the pool may
		// legitimately finish a few in-flight solves first).
		if n == 0 || n > 11 {
			t.Fatalf("workers=%d: %d WDP solves observed", workers, n)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("workers=%d: goroutine leak after cancellation: %d > %d", workers, g, before)
		}
		cancel()
	}
}

// TestRunCancellationMidPricing cancels the context from inside the
// observer on the first per-winner pricing event, so the sweep has
// already committed and the cancellation lands inside the lazy
// exact-critical payment stage. The sentinel surface must hold, the
// partially priced result must be abandoned, the stage must close with a
// failed pricing_done event, and neither the sweep pool nor the pricing
// pool may leak goroutines.
func TestRunCancellationMidPricing(t *testing.T) {
	bids, cfg := testWorkload(t, 80, 12, 3)
	cfg.PaymentRule = afl.RuleExactCritical
	cfg.ReservePrice = 1e6 // above every generated price: bounds the bisection bracket
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		var mu sync.Mutex
		var priced int
		var pricingFailed bool
		o := afl.ObserverFunc(func(e afl.Event) {
			switch e.Kind {
			case afl.EvWinnerPriced:
				mu.Lock()
				priced++
				mu.Unlock()
				once.Do(cancel)
			case afl.EvPricingDone:
				mu.Lock()
				pricingFailed = !e.OK
				mu.Unlock()
			}
		})
		before := runtime.NumGoroutine()
		res, err := afl.Run(ctx, bids, cfg, afl.WithWorkers(workers), afl.WithObserver(o))
		if !errors.Is(err, afl.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want ErrCanceled ∧ context.Canceled", workers, err)
		}
		if res.Feasible {
			t.Fatalf("workers=%d: canceled pricing returned a committed result", workers)
		}
		mu.Lock()
		n, failed := priced, pricingFailed
		mu.Unlock()
		if n == 0 {
			t.Fatalf("workers=%d: cancellation never reached the pricing stage", workers)
		}
		if !failed {
			t.Fatalf("workers=%d: pricing_done did not report the abandoned stage", workers)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("workers=%d: goroutine leak after cancellation: %d > %d", workers, g, before)
		}
		cancel()
	}
}

// TestWidthOneRunsInline holds the width-1 contract of every fan-out: a
// one-worker run starts no goroutine, so every event of an
// exact-critical Run (sweep and pricing) and of a one-worker RunBatch
// (scheduler and per-auction sweeps) is emitted on the caller's
// goroutine.
func TestWidthOneRunsInline(t *testing.T) {
	self := goroutineID()
	var mu sync.Mutex
	onGoroutine := map[string]int{}
	kinds := map[afl.EventKind]int{}
	o := afl.ObserverFunc(func(e afl.Event) {
		id := goroutineID()
		mu.Lock()
		onGoroutine[id]++
		kinds[e.Kind]++
		mu.Unlock()
	})
	ctx := context.Background()
	bids, cfg := testWorkload(t, 80, 12, 3)
	cfg.PaymentRule = afl.RuleExactCritical
	if _, err := afl.Run(ctx, bids, cfg, afl.WithWorkers(1), afl.WithObserver(o)); err != nil {
		t.Fatal(err)
	}
	insts := batchTestInstances(t, 4, 40, 12, 3)
	if _, err := afl.RunBatch(ctx, insts, afl.WithWorkers(1), afl.WithObserver(o)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []afl.EventKind{afl.EvWDPSolved, afl.EvWinnerPriced, afl.EvAuctionDequeued} {
		if kinds[k] == 0 {
			t.Fatalf("no %v events observed", k)
		}
	}
	for id, n := range onGoroutine {
		if id != self {
			t.Fatalf("%d events on goroutine %s, want every event on the caller's goroutine %s", n, id, self)
		}
	}
}

// goroutineID returns the calling goroutine's id from the first line of
// its stack trace, "goroutine <id> [running]:".
func goroutineID() string {
	var buf [64]byte
	line := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	return string(line[:bytes.IndexByte(line, ' ')])
}

// TestRunGoldenTrace pins the exact event stream of a sequential
// instrumented run on a fixed workload and a deterministic clock. Any
// change to the phase-event contract shows up as a diff here.
func TestRunGoldenTrace(t *testing.T) {
	bids := []afl.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	cfg := afl.Config{T: 3, K: 1}
	tr := &afl.Trace{}
	base := time.Unix(0, 0).UTC()
	calls := 0
	now := func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * time.Millisecond)
	}
	if _, err := afl.Run(context.Background(), bids, cfg, afl.WithObserver(tr), afl.WithNow(now)); err != nil {
		t.Fatal(err)
	}
	const want = `auction_started tg=3 round=2 value=3 ok=false
wdp_solved tg=2 value=7 ok=true dur=1ms
wdp_solved tg=3 value=7 ok=true dur=1ms
winner_accepted tg=2 client=0 bid=0 value=2 ok=true
payment_computed tg=2 client=0 bid=0 value=2.5 ok=true
winner_accepted tg=2 client=2 bid=2 value=5 ok=true
payment_computed tg=2 client=2 bid=2 value=5 ok=true
auction_done tg=2 value=7 ok=true dur=5ms
`
	if got := tr.String(); got != want {
		t.Fatalf("trace mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRunPricingGoldenTrace pins the exact event stream of the lazy
// pricing stage: the §V-B workload under RuleExactCritical with a
// reserve. The trace must show the sweep solving every candidate WDP
// without pricing events, then a single pricing phase over the chosen
// T̂_g — bid 0 confirmed at its Algorithm 3 seed in three probes, bid 2
// (an essential winner) priced at the reserve in two — before the
// winner/payment events report the exact-critical payments.
func TestRunPricingGoldenTrace(t *testing.T) {
	bids := []afl.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	cfg := afl.Config{T: 3, K: 1, PaymentRule: afl.RuleExactCritical, ReservePrice: 120}
	tr := &afl.Trace{}
	base := time.Unix(0, 0).UTC()
	calls := 0
	now := func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * time.Millisecond)
	}
	if _, err := afl.Run(context.Background(), bids, cfg, afl.WithObserver(tr), afl.WithNow(now)); err != nil {
		t.Fatal(err)
	}
	const want = `auction_started tg=3 round=2 value=3 ok=false
wdp_solved tg=2 value=7 ok=true dur=1ms
wdp_solved tg=3 value=7 ok=true dur=1ms
pricing_started tg=2 round=1 value=2 ok=false
winner_priced tg=2 round=3 client=0 bid=0 value=2.5 ok=true dur=1ms
winner_priced tg=2 round=2 client=2 bid=2 value=120 ok=true dur=1ms
pricing_done tg=2 value=122.5 ok=true dur=5ms
winner_accepted tg=2 client=0 bid=0 value=2 ok=true
payment_computed tg=2 client=0 bid=0 value=2.5 ok=true
winner_accepted tg=2 client=2 bid=2 value=5 ok=true
payment_computed tg=2 client=2 bid=2 value=120 ok=true
auction_done tg=2 value=7 ok=true dur=11ms
`
	if got := tr.String(); got != want {
		t.Fatalf("trace mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPricingAllocGuard locks the allocation budget of the lazy
// exact-critical pricing path against the payments_lazy baseline (see
// allocBaseline). It mirrors the benchcore payments configuration so the
// counts are comparable.
func TestPricingAllocGuard(t *testing.T) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 200
	p.T = 10
	p.K = 4
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	cfg.PaymentRule = afl.RuleExactCritical
	cfg.ExcludeOwnBids = true
	cfg.ReservePrice = 10 * p.CostHi
	ctx := context.Background()
	if _, err := afl.Run(ctx, bids, cfg, afl.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	// The best of a few batches, as in the engine_reuse guards: one GC
	// inside a batch flushes the pools and that run pays a full arena
	// rebuild.
	got := minAllocsPerRun(5, 5, func() {
		if _, err := afl.Run(ctx, bids, cfg, afl.WithWorkers(1)); err != nil {
			t.Error(err)
		}
	})
	// A quarter of headroom absorbs pool jitter, yet a regression that
	// re-allocates probe slices per bisection step, or grows a winner
	// list per winner again, blows past it. Under -race, sync.Pool.Put
	// drops a random share of items, so those runs get fixed slack for
	// the pool misses on top.
	base := allocBaseline(t, "payments_lazy", p.Clients)
	limit := base * 1.25
	if raceEnabled {
		limit += 64
	}
	if got > limit {
		t.Fatalf("lazy pricing run allocates %.0f/op, baseline %.0f (limit %.0f)", got, base, limit)
	}
}

// TestPricingAllocBound bounds exact-critical pricing without a baseline
// file: the run may allocate only a per-winner constant more than the
// same run under RuleCritical, whose Algorithm 3 payments come out of the
// greedy itself. Replayed probes allocate nothing per probe; what the
// pricing stage adds is per pass (the staged payments, the pricer and
// the growth of its step record), measured at 5–7 allocations, 0.6–0.8
// per winner, across 50–1000 clients with and without ExcludeOwnBids. A
// full re-solve per probe costs hundreds of allocations per winner.
func TestPricingAllocBound(t *testing.T) {
	if raceEnabled {
		// Under -race, sync.Pool.Put drops one item in four at random,
		// so the count would include pool misses instead of the steady
		// state this bound is about. CI enforces it without -race.
		t.Skip("allocation bound is not meaningful under the race detector")
	}
	const perWinner = 2
	bids, cfg := testWorkload(t, 200, 10, 4)
	cfg.ExcludeOwnBids = true
	cfg.ReservePrice = 10 * afl.DefaultWorkloadParams().CostHi
	ctx := context.Background()
	allocs := func(rule afl.PaymentRule) (float64, int) {
		c := cfg
		c.PaymentRule = rule
		res, err := afl.Run(ctx, bids, c, afl.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		return minAllocsPerRun(5, 5, func() {
			if _, err := afl.Run(ctx, bids, c, afl.WithWorkers(1)); err != nil {
				t.Error(err)
			}
		}), len(res.Winners)
	}
	critical, winners := allocs(afl.RuleCritical)
	exact, _ := allocs(afl.RuleExactCritical)
	if limit := critical + perWinner*float64(winners); exact > limit {
		t.Fatalf("exact-critical run allocates %.0f/op, RuleCritical %.0f; limit %.0f (%d per winner × %d winners)",
			exact, critical, limit, perWinner, winners)
	}
}

// TestNilObserverAllocGuard asserts the zero-cost-when-nil guarantee of
// the observability redesign: an uninstrumented Engine.RunCtx stays
// within the engine_reuse baseline (see allocBaseline).
func TestNilObserverAllocGuard(t *testing.T) {
	// Mirror the benchcore I=100 configuration (T=50, K=10) so the
	// engine_reuse baseline is comparable.
	bids, cfg := testWorkload(t, 100, 50, 10)
	eng, err := afl.NewEngine(bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.RunCtx(ctx, afl.RunOptions{}); err != nil {
		t.Fatalf("guard workload: %v", err)
	}
	// Allocation counts jitter with pool hit rates; a quarter of slack
	// still catches an instrumented hot path (which would at least double
	// the count via timing and event boxing).
	limit := allocBaseline(t, "engine_reuse", len(clientSet(bids)))*1.25 + 64
	// Allocation counts depend on pool hit rates: a GC mid-measurement
	// flushes the shape pools and that run pays a full arena rebuild,
	// tripping the guard spuriously (seen under -race, where everything
	// allocates more and collections land more often). The guarantee
	// being guarded is the warm hot path, so take the best of a few
	// batches: an instrumented hot path (which at least doubles the count
	// via timing and event boxing) still fails every batch.
	got := minAllocsPerRun(5, 5, func() {
		if _, err := eng.RunCtx(ctx, afl.RunOptions{}); err != nil {
			t.Error(err)
		}
	})
	if got > limit {
		t.Fatalf("nil-observer RunCtx allocates %.0f/op, limit %.0f", got, limit)
	}
}

// allocBaselinesFile records the allocs/op baselines of the allocation
// guards, one row per benchcore configuration and population size.
const allocBaselinesFile = "testdata/alloc_baselines.json"

// allocBaseline returns the recorded allocs/op of the benchcore
// configuration path at the given population size. A missing file or row
// fails the test: a guard without its baseline guards nothing.
func allocBaseline(t *testing.T, path string, clients int) float64 {
	t.Helper()
	data, err := os.ReadFile(allocBaselinesFile)
	if err != nil {
		t.Fatalf("read allocation baselines: %v", err)
	}
	var rep struct {
		Results []struct {
			Path        string `json:"path"`
			Clients     int    `json:"clients"`
			AllocsPerOp int64  `json:"allocs_per_op"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parse %s: %v", allocBaselinesFile, err)
	}
	for _, r := range rep.Results {
		if r.Path == path && r.Clients == clients {
			return float64(r.AllocsPerOp)
		}
	}
	t.Fatalf("%s has no %s baseline for %d clients", allocBaselinesFile, path, clients)
	return 0
}

// minAllocsPerRun returns the lowest testing.AllocsPerRun over reps
// measurement batches. Alloc guards use it so one GC-induced pool flush
// inside a batch (which makes a run pay a full arena rebuild) cannot
// fail a guard whose contract is about the warm hot path.
func minAllocsPerRun(runs, reps int, f func()) float64 {
	best := testing.AllocsPerRun(runs, f)
	for i := 1; i < reps; i++ {
		if a := testing.AllocsPerRun(runs, f); a < best {
			best = a
		}
	}
	return best
}

func clientSet(bids []afl.Bid) map[int]bool {
	set := make(map[int]bool)
	for _, b := range bids {
		set[b.Client] = true
	}
	return set
}
