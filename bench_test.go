package afl_test

// Benchmark harness: one benchmark per figure of the paper's evaluation
// section (there are no numeric tables; Table I is notation). Each
// benchmark regenerates its figure's series at reduced ("quick") scale so
// `go test -bench=.` completes in minutes; run cmd/aflsim for the
// full-scale figures and CSV output.
//
// Micro-benchmarks for the core algorithm at paper scale follow the
// figure benchmarks.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fedauction/afl"
	"github.com/fedauction/afl/internal/baseline"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/experiments"
	"github.com/fedauction/afl/internal/seedwdp"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	runner := experiments.Registry[id]
	if runner == nil {
		b.Fatalf("unknown figure %s", id)
	}
	for i := 0; i < b.N; i++ {
		fig := runner(experiments.Options{Seed: int64(i + 1), Quick: true})
		if len(fig.Chart.Series) == 0 {
			b.Fatalf("%s produced no series", id)
		}
	}
}

// BenchmarkFig3WinnerRatio regenerates Fig. 3: performance ratio of
// A_winner across T̂_g and bids-per-client J.
func BenchmarkFig3WinnerRatio(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFig4AuctionRatio regenerates Fig. 4: performance ratio of all
// four algorithms across client counts.
func BenchmarkFig4AuctionRatio(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig4JAuctionRatio regenerates the J sweep of Fig. 4.
func BenchmarkFig4JAuctionRatio(b *testing.B) { benchFigure(b, "fig4j") }

// BenchmarkFig5CostVsClients regenerates Fig. 5: social cost vs I.
func BenchmarkFig5CostVsClients(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6CostVsBids regenerates Fig. 6: social cost vs J.
func BenchmarkFig6CostVsBids(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7CostVsTg regenerates Fig. 7: social cost at fixed T̂_g
// (resource-proportional costs; shows the computation/communication
// balance point).
func BenchmarkFig7CostVsTg(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8RunningTime regenerates Fig. 8: A_FL vs A_online runtime.
func BenchmarkFig8RunningTime(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9PaymentVsCost regenerates Fig. 9: payment vs claimed cost
// per winner (individual rationality).
func BenchmarkFig9PaymentVsCost(b *testing.B) { benchFigure(b, "fig9") }

// --- core algorithm micro-benchmarks at the paper's default scale ---

func paperBids(b *testing.B, clients, bidsPer int) ([]afl.Bid, afl.Config) {
	b.Helper()
	p := afl.DefaultWorkloadParams()
	p.Clients = clients
	p.BidsPerUser = bidsPer
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		b.Fatal(err)
	}
	return bids, p.Config()
}

// BenchmarkRunAuctionI1000 measures the full A_FL enumeration at the
// paper's default I=1000, J=5, T=50, K=20.
func BenchmarkRunAuctionI1000(b *testing.B) {
	bids, cfg := paperBids(b, 1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := afl.Run(context.Background(), bids, cfg); err != nil {
			b.Fatalf("auction failed: %v", err)
		}
	}
}

// BenchmarkRunAuctionI9000 measures the paper's largest input
// (I=9000, J=10), the right-most point of Fig. 8.
func BenchmarkRunAuctionI9000(b *testing.B) {
	bids, cfg := paperBids(b, 9000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := afl.Run(context.Background(), bids, cfg); err != nil {
			b.Fatalf("auction failed: %v", err)
		}
	}
}

// BenchmarkRunAuctionConcurrent measures the parallel T̂_g fan-out at the
// paper's default scale; compare with BenchmarkRunAuctionI1000.
func BenchmarkRunAuctionConcurrent(b *testing.B) {
	bids, cfg := paperBids(b, 1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := afl.Run(context.Background(), bids, cfg, afl.WithWorkers(-1)); err != nil {
			b.Fatalf("auction failed: %v", err)
		}
	}
}

// BenchmarkSolveWDP measures one winner-determination problem (A_winner)
// at T̂_g=50.
func BenchmarkSolveWDP(b *testing.B) {
	bids, cfg := paperBids(b, 1000, 5)
	qual := core.Qualified(bids, cfg.T, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.SolveWDP(bids, qual, cfg.T, cfg)
		if !res.Feasible {
			b.Fatal("WDP infeasible")
		}
	}
}

// BenchmarkBaselines measures each comparison mechanism on the same WDP.
func BenchmarkBaselines(b *testing.B) {
	bids, cfg := paperBids(b, 1000, 5)
	qual := core.Qualified(bids, cfg.T, cfg)
	for _, m := range []baseline.Mechanism{baseline.FCFS{}, baseline.Greedy{}, baseline.AOnline{}} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := m.Solve(bids, qual, cfg.T, cfg)
				if !out.Feasible {
					b.Fatal("baseline infeasible")
				}
			}
		})
	}
}

// --- incremental engine vs the frozen seed solver ---
//
// BenchmarkSweep* compare the T̂_g sweep across implementations at
// I ∈ {100, 500, 1000} (J=5, T=50, K=20): the frozen pre-refactor solver
// (internal/seedwdp), the incremental sequential and concurrent paths, and
// a reused Engine. `make bench-core` records them in BENCH_core.txt; the
// differential suite guarantees all paths return bit-identical results,
// so these measure pure overhead.

var sweepSizes = []int{100, 500, 1000}

// sweepBids is paperBids with the coverage demand scaled down below
// I=200: the paper's K=20 is infeasible for a 100-client population.
func sweepBids(b *testing.B, clients int) ([]afl.Bid, afl.Config) {
	b.Helper()
	p := afl.DefaultWorkloadParams()
	p.Clients = clients
	if clients < 200 {
		p.K = 10
	}
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		b.Fatal(err)
	}
	return bids, p.Config()
}

func benchSweep(b *testing.B, run func(bids []afl.Bid, cfg afl.Config) bool) {
	b.Helper()
	for _, clients := range sweepSizes {
		b.Run(fmt.Sprintf("I%d", clients), func(b *testing.B) {
			bids, cfg := sweepBids(b, clients)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !run(bids, cfg) {
					b.Fatal("sweep infeasible")
				}
			}
		})
	}
}

// BenchmarkSweepSeed is the pre-refactor baseline: per-T̂_g re-filtering
// and map-based solver state, frozen verbatim in internal/seedwdp.
func BenchmarkSweepSeed(b *testing.B) {
	benchSweep(b, func(bids []afl.Bid, cfg afl.Config) bool {
		res, err := seedwdp.RunAuction(bids, cfg)
		return err == nil && res.Feasible
	})
}

// BenchmarkSweepIncremental is the shared-context sequential sweep behind
// Run.
func BenchmarkSweepIncremental(b *testing.B) {
	benchSweep(b, func(bids []afl.Bid, cfg afl.Config) bool {
		_, err := afl.Run(context.Background(), bids, cfg)
		return err == nil
	})
}

// BenchmarkSweepIncrementalConcurrent fans the per-T̂_g solves over
// GOMAXPROCS workers on the shared context.
func BenchmarkSweepIncrementalConcurrent(b *testing.B) {
	benchSweep(b, func(bids []afl.Bid, cfg afl.Config) bool {
		_, err := afl.Run(context.Background(), bids, cfg, afl.WithWorkers(-1))
		return err == nil
	})
}

// BenchmarkSweepEngineReuse re-runs the sweep on one prebuilt Engine,
// isolating the steady-state cost once context construction is amortized.
func BenchmarkSweepEngineReuse(b *testing.B) {
	for _, clients := range sweepSizes {
		b.Run(fmt.Sprintf("I%d", clients), func(b *testing.B) {
			bids, cfg := sweepBids(b, clients)
			eng, err := afl.NewEngine(bids, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunCtx(context.Background(), afl.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadGenerate measures population generation at default
// scale.
func BenchmarkWorkloadGenerate(b *testing.B) {
	p := afl.DefaultWorkloadParams()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		if _, err := afl.GenerateWorkload(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactCriticalPricing compares the exact-critical payment
// paths on a small pricing-bound configuration (I=200, J=5, T=10, K=4):
// eager_reference prices every candidate T̂_g (seedwdp.RunEager), lazy
// prices only the chosen T̂_g sequentially, and
// parallel fans the per-winner bisections over GOMAXPROCS workers. The
// differential suite guarantees all three return bit-identical payments,
// so the ratios measure pure pricing work.
func BenchmarkExactCriticalPricing(b *testing.B) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 200
	p.T = 10
	p.K = 4
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := p.Config()
	cfg.PaymentRule = afl.RuleExactCritical
	cfg.ExcludeOwnBids = true
	cfg.ReservePrice = 10 * p.CostHi
	ctx := context.Background()
	b.Run("eager_reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := seedwdp.RunEager(bids, cfg)
			if err != nil || !res.Feasible {
				b.Fatalf("eager auction failed: %v", err)
			}
		}
	})
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := afl.Run(ctx, bids, cfg, afl.WithWorkers(1))
			if err != nil || !res.Feasible {
				b.Fatalf("lazy auction failed: %v", err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := afl.Run(ctx, bids, cfg, afl.WithWorkers(-1))
			if err != nil || !res.Feasible {
				b.Fatalf("parallel auction failed: %v", err)
			}
		}
	})
}

// BenchmarkBatchThroughput compares the two fleet runners over one fixed
// set of feasible auction instances: naive is goroutine-per-auction (each
// call paying full engine construction), batch is afl.RunBatch over the
// shared worker pool with pooled engines. One op is the whole fleet, so
// divide ns/op and allocs/op by the instance count for per-auction
// numbers. Both runners run at GOMAXPROCS, so -cpu sets the width of the
// comparison.
func BenchmarkBatchThroughput(b *testing.B) {
	const m, clients = 32, 60
	ctx := context.Background()
	insts := make([]afl.Instance, 0, m)
	for seed := int64(3000); len(insts) < m; seed++ {
		p := afl.DefaultWorkloadParams()
		p.Clients = clients
		p.K = 10
		p.Seed = seed
		bids, err := afl.GenerateWorkload(p)
		if err != nil {
			b.Fatal(err)
		}
		// Keep only feasible instances so both runners do identical work.
		if res, err := afl.Run(ctx, bids, p.Config()); err != nil || !res.Feasible {
			continue
		}
		insts = append(insts, afl.Instance{Bids: bids, Cfg: p.Config()})
	}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			var failed atomic.Bool
			// Collect results like the batch engine does, so both fleet
			// runners hold the same live set.
			results := make([]afl.Result, len(insts))
			for j, inst := range insts {
				wg.Add(1)
				go func(j int, inst afl.Instance) {
					defer wg.Done()
					res, err := afl.Run(ctx, inst.Bids, inst.Cfg)
					if err != nil || !res.Feasible {
						failed.Store(true)
					}
					results[j] = res
				}(j, inst)
			}
			wg.Wait()
			if failed.Load() || len(results) != len(insts) {
				b.Fatal("naive fleet run failed")
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			outcomes, err := afl.RunBatch(ctx, insts)
			if err != nil {
				b.Fatal(err)
			}
			for _, oc := range outcomes {
				if oc.Err != nil || !oc.Result.Feasible {
					b.Fatalf("instance %d failed: %v", oc.Index, oc.Err)
				}
			}
		}
	})
}

// BenchmarkExactCriticalPayments measures the bisection payment rule on a
// small instance (it re-runs the allocation O(log 1/ε) times per winner).
func BenchmarkExactCriticalPayments(b *testing.B) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 100
	p.T = 15
	p.K = 4
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := p.Config()
	cfg.PaymentRule = afl.RuleExactCritical
	cfg.ExcludeOwnBids = true
	cfg.ReservePrice = 500
	qual := core.Qualified(bids, p.T, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.SolveWDP(bids, qual, p.T, cfg)
		if !res.Feasible {
			b.Fatal("WDP infeasible")
		}
	}
}

// BenchmarkSolve10k is perfbench's solve-10k operation as a go test
// benchmark: per op, CompileBids and RunSet with two workers and
// exact-critical pricing on one of eight 2000×5 populations (10⁴ bids,
// T=50, K=20), taken in turn. Before the timer starts, the first
// population's Result is checked against a one-worker solve. Profile it
// with -cpuprofile.
func BenchmarkSolve10k(b *testing.B) {
	ctx := context.Background()
	pops := make([][]afl.Bid, 8)
	var cfg afl.Config
	for j := range pops {
		p := afl.DefaultWorkloadParams()
		p.Clients, p.BidsPerUser, p.Seed = 2000, 5, int64(100+j)
		bids, err := afl.GenerateWorkload(p)
		if err != nil {
			b.Fatal(err)
		}
		pops[j], cfg = bids, p.Config()
	}
	rule := afl.WithPaymentRule(afl.RuleExactCritical)
	ref, err := afl.Run(ctx, pops[0], cfg, afl.WithWorkers(1), rule)
	if err != nil {
		b.Fatal(err)
	}
	if got, err := afl.RunSet(ctx, afl.CompileBids(pops[0]), cfg, afl.WithWorkers(2), rule); err != nil || !reflect.DeepEqual(got, ref) {
		b.Fatalf("two-worker columnar solve differs from the one-worker reference (err %v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := afl.CompileBids(pops[i%len(pops)])
		if _, err := afl.RunSet(ctx, set, cfg, afl.WithWorkers(2), rule); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the columnar path at market scale ---

// singleMinded generates and compiles a population of n clients with one
// bid each, the market-scale shape, under the paper's default T and K.
func singleMinded(b *testing.B, n int) (*afl.BidSet, afl.Config) {
	b.Helper()
	bids, cfg := paperBids(b, n, 1)
	return afl.CompileBids(bids), cfg
}

// BenchmarkColumnar times RunSet on compiled single-minded populations of
// 10⁴, 10⁵ and 10⁶ clients, with the T̂_g sweep fanned over GOMAXPROCS
// workers: engine construction and the whole sweep are inside each op,
// CompileBids is not. Run it with -cpu 1,2,4 for the sweep's worker
// scaling. A size is generated, and checked feasible, once, on the first
// run that selects it.
func BenchmarkColumnar(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		var set *afl.BidSet
		var cfg afl.Config
		b.Run(fmt.Sprintf("bids=%d", n), func(b *testing.B) {
			if set == nil {
				set, cfg = singleMinded(b, n)
				if res, err := afl.RunSet(ctx, set, cfg, afl.WithWorkers(-1)); err != nil || !res.Feasible {
					b.Fatalf("columnar auction infeasible: %v", err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := afl.RunSet(ctx, set, cfg, afl.WithWorkers(-1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverFrontier times the solver tiers on a single-minded
// population of 10⁴ and of 10⁵ clients: the exact sweep, coarse-to-fine
// and LP-guided rounding. Each tier reports as "ratio" the certified
// approximation ratio of its result on the timed instance (1 for the
// exact tier), so a row reading twice the speed at ratio 1.04 is a proven
// cost loss of at most 4%. Before timing, the tier contracts are checked
// on that instance: the exact tier attaches no certificate, and every
// approximate certificate has Ratio ≥ 1 and a lower bound no higher than
// the exact cost.
func BenchmarkSolverFrontier(b *testing.B) {
	ctx := context.Background()
	tiers := []struct {
		name string
		opts []afl.Option
	}{
		{"exact", nil},
		{"coarse-fine", []afl.Option{afl.WithSolver(afl.SolverCoarseFine)}},
		{"lp-round", []afl.Option{afl.WithSolver(afl.SolverLPRound)}},
	}
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("bids=%d", n), func(b *testing.B) {
			set, cfg := singleMinded(b, n)
			exact, err := afl.RunSet(ctx, set, cfg)
			if err != nil || !exact.Feasible {
				b.Fatalf("frontier auction infeasible: %v", err)
			}
			if exact.Cert != nil {
				b.Fatalf("exact tier attached a certificate: %+v", exact.Cert)
			}
			for _, tier := range tiers {
				ratio := 1.0
				if tier.opts != nil {
					res, err := afl.RunSet(ctx, set, cfg, tier.opts...)
					if err != nil {
						b.Fatal(err)
					}
					c := res.Cert
					if c == nil || c.Ratio < 1 || c.LowerBound > exact.Cost*(1+1e-9) {
						b.Fatalf("%s certificate contract violated against exact cost %v: %+v", tier.name, exact.Cost, c)
					}
					ratio = c.Ratio
				}
				b.Run(tier.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := afl.RunSet(ctx, set, cfg, tier.opts...); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(ratio, "ratio")
				})
			}
		})
	}
}
