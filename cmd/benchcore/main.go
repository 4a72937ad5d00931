// Command benchcore benchmarks the incremental T̂_g-sweep engine against
// the frozen pre-refactor solver (internal/seedwdp) and writes the
// comparison to a machine-readable JSON report (BENCH_core.json at the
// repo root, regenerated with `make bench-json`).
//
// The differential test suite guarantees every measured path returns
// bit-identical results, so the numbers isolate pure implementation
// overhead: per-T̂_g re-filtering and map-based solver state in the seed
// versus shared qualification delta lists and pooled slice-backed scratch
// in the engine.
//
// A second group of payments_* paths benchmarks the exact-critical
// pricing stage on a dedicated workload: the frozen eager-serial seed
// (prices every candidate T̂_g), the eager reference on the current
// engine (seedwdp.RunEager), and the lazy engine pricing only the chosen
// T̂_g sequentially and in parallel.
//
// A third group measures the columnar (BidSet) hot path. sweep_w<n> rows
// form the multi-worker scaling table: one warm columnar engine per
// population, the T̂_g sweep fanned over n ∈ -workers workers, at every
// -sizes population and at the large single-minded populations. columnar
// rows are the end-to-end CompileBids→RunSet path at 10⁴ clients always,
// and at 10⁵/10⁶ behind -big (the seed solver is never run at those
// sizes; the differential suite locks columnar↔seed identity at 10⁴).
// The run executes under the ambient GOMAXPROCS — never pinned — and the
// report records cpus/gomaxprocs so single-core runners are read as such.
//
// Usage:
//
//	benchcore [-out BENCH_core.json] [-sizes 100,500,1000] [-quick]
//	          [-workers 1,2,4,8] [-batch-workers 0] [-big]
//	          [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"math/rand"

	"github.com/fedauction/afl"
	"github.com/fedauction/afl/internal/lp"
	"github.com/fedauction/afl/internal/obs"
	"github.com/fedauction/afl/internal/seedwdp"
	"github.com/fedauction/afl/internal/workload"
)

type measurement struct {
	Path        string  `json:"path"`
	Clients     int     `json:"clients"`
	K           int     `json:"k"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Throughput paths (throughput_*) additionally record the batch
	// shape. Their NsPerOp/AllocsPerOp/BytesPerOp are normalized per
	// auction (batch cost divided by Instances) so they stay comparable
	// with the single-auction paths; AuctionsPerSec is the headline
	// throughput number.
	Workers        int     `json:"workers,omitempty"`
	Instances      int     `json:"instances,omitempty"`
	AuctionsPerSec float64 `json:"auctions_per_sec,omitempty"`
	// Frontier paths (frontier_*) additionally record the solver tier
	// and the certified approximation ratio of the measured instance
	// (1.0 for the exact tier, Result.Cert.Ratio otherwise — the bound
	// is certified, so the true loss is at most this).
	Solver string  `json:"solver,omitempty"`
	Ratio  float64 `json:"ratio,omitempty"`
}

type summary struct {
	// All ratios compare the seed baseline with a live path at the largest
	// measured population; > 1 means the live path is better.
	Clients            int     `json:"clients"`
	SpeedupSequential  float64 `json:"speedup_sequential"`
	SpeedupConcurrent  float64 `json:"speedup_concurrent"`
	SpeedupEngineReuse float64 `json:"speedup_engine_reuse"`
	AllocRatio         float64 `json:"alloc_ratio"`
	BytesRatio         float64 `json:"bytes_ratio"`
	// Payments ratios compare the frozen eager-serial exact-critical
	// auction (payments_seed) with the lazy pricing paths on the payments
	// configuration.
	PaymentsClients         int     `json:"payments_clients"`
	SpeedupPayments         float64 `json:"speedup_payments"`
	SpeedupPaymentsParallel float64 `json:"speedup_payments_parallel"`
	// Throughput ratios compare goroutine-per-auction (throughput_naive)
	// with the batch row of the same effective width: the naive runner
	// starts a goroutine per auction, so it runs at GOMAXPROCS, and only
	// a batch row at that width isolates scheduling and engine reuse.
	// > 1 means the batch engine is better; 0 means no batch row ran at
	// the naive width.
	ThroughputInstances  int     `json:"throughput_instances"`
	ThroughputClients    int     `json:"throughput_clients"`
	SpeedupThroughput    float64 `json:"speedup_throughput"`
	ThroughputAllocRatio float64 `json:"throughput_alloc_ratio"`
	// Columnar headline: the largest measured columnar population, its
	// end-to-end CompileBids→RunSet solve time, and the sweep_w1 /
	// sweep_w<max> ratio at that population (> 1 means the wide sweep
	// wins; expect ≤ 1 on single-core runners — read it against
	// gomaxprocs).
	ColumnarClients  int     `json:"columnar_clients"`
	ColumnarSolveSec float64 `json:"columnar_solve_sec"`
	SpeedupSweepWide float64 `json:"speedup_sweep_wide"`
	// Frontier headline, at the largest frontier population: the speedup
	// of the fastest approximate tier whose certified ratio stays within
	// the tight (≤ 1.05) and loose (≤ 1.2) quality envelopes, versus
	// frontier_exact, plus the certified ratio and path of each winner.
	// Zero when no tier certifies inside the envelope at that size.
	FrontierClients      int     `json:"frontier_clients,omitempty"`
	SpeedupFrontierTight float64 `json:"speedup_frontier_tight,omitempty"`
	FrontierTightRatio   float64 `json:"frontier_tight_ratio,omitempty"`
	FrontierTightPath    string  `json:"frontier_tight_path,omitempty"`
	SpeedupFrontierLoose float64 `json:"speedup_frontier_loose,omitempty"`
	FrontierLooseRatio   float64 `json:"frontier_loose_ratio,omitempty"`
	FrontierLoosePath    string  `json:"frontier_loose_path,omitempty"`
	// FrontierLPCostRatio is frontier_exact's cover cost divided by
	// frontier_lp's at the largest frontier population — above 1 when
	// LP-guided rounding found a cheaper cover than the exact greedy
	// sweep (quality the exact tier cannot reach, at lower speed).
	FrontierLPCostRatio float64 `json:"frontier_lp_cost_ratio,omitempty"`
}

// paymentsConfig records the dedicated workload the payments_* paths run
// on: the frozen seed's exact-critical pricing re-solves the allocation
// per probe, so the sweep-scale defaults (T=50, K=20) would take hours on
// the eager seed.
type paymentsConfig struct {
	Clients int     `json:"clients"`
	T       int     `json:"t"`
	K       int     `json:"k"`
	Reserve float64 `json:"reserve"`
}

type report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	CPUs        int    `json:"cpus"`
	// GOMAXPROCS is the scheduler width the run executed under and
	// Workers the effective headline batch width after clamping — the
	// context every throughput_* number has to be read in.
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Workers     int            `json:"workers"`
	BidsPerUser int            `json:"bids_per_user"`
	T           int            `json:"t"`
	K           int            `json:"k"`
	Payments    paymentsConfig `json:"payments"`
	Results     []measurement  `json:"results"`
	Summary     summary        `json:"summary"`
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output file")
	sizesArg := flag.String("sizes", "100,500,1000", "comma-separated client counts")
	workersArg := flag.String("workers", "1,2,4,8", "comma-separated worker counts for the sweep scaling table (sweep_w<n> rows)")
	batchWorkersArg := flag.String("batch-workers", "0", "comma-separated batch widths for the throughput paths (0 = GOMAXPROCS); the first is the headline width")
	big := flag.Bool("big", false, "extend the columnar rows to 10⁵- and 10⁶-client populations (see `make bench-big`)")
	frontier := flag.Bool("frontier", false, "extend the solver-frontier rows to the 10⁵-client population (10⁶ with -big; see `make bench-frontier`)")
	quick := flag.Bool("quick", false, "single iteration per benchmark, one 10⁴-bid columnar row plus an exact/coarse frontier pair (CI smoke)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" || *memprofile != "" {
		stop, err := obs.StartProfiles(*cpuprofile, *memprofile)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "benchcore: profiles:", err)
			}
		}()
	}

	// testing.Benchmark reads the (unregistered) -test.benchtime flag;
	// registering the testing flags lets us set it programmatically.
	testing.Init()
	benchtime := "2s"
	if *quick {
		benchtime = "1x"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fatal(err)
	}

	var sizes []int
	for _, s := range strings.Split(*sizesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad -sizes entry %q", s))
		}
		sizes = append(sizes, n)
	}
	var sweepWidths []int
	for _, s := range strings.Split(*workersArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad -workers entry %q", s))
		}
		sweepWidths = append(sweepWidths, n)
	}
	var widths []int
	for _, s := range strings.Split(*batchWorkersArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 0 {
			fatal(fmt.Errorf("bad -batch-workers entry %q", s))
		}
		widths = append(widths, n)
	}

	p := workload.NewDefaultParams()
	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		BidsPerUser: p.BidsPerUser,
		T:           p.T,
		K:           p.K,
	}

	ctx := context.Background()
	seqPaths := []struct {
		name string
		run  func(bids []afl.Bid, cfg afl.Config) func() bool
	}{
		{"seed", func(bids []afl.Bid, cfg afl.Config) func() bool {
			return func() bool {
				res, err := seedwdp.RunAuction(bids, cfg)
				return err == nil && res.Feasible
			}
		}},
		{"incremental", func(bids []afl.Bid, cfg afl.Config) func() bool {
			return func() bool {
				_, err := afl.Run(ctx, bids, cfg)
				return err == nil
			}
		}},
		{"incremental_concurrent", func(bids []afl.Bid, cfg afl.Config) func() bool {
			return func() bool {
				_, err := afl.Run(ctx, bids, cfg, afl.WithWorkers(-1))
				return err == nil
			}
		}},
		{"engine_reuse", func(bids []afl.Bid, cfg afl.Config) func() bool {
			eng, err := afl.NewEngine(bids, cfg)
			if err != nil {
				fatal(err)
			}
			return func() bool {
				_, err := eng.RunCtx(ctx, afl.RunOptions{})
				return err == nil
			}
		}},
	}

	perPath := map[string]measurement{} // at the largest size

	// sweepScaling appends the sweep_w<n> scaling rows for one population:
	// a warm columnar engine, the T̂_g sweep fanned over each requested
	// worker count. Engine construction sits outside the timed op, so the
	// rows isolate how the sharded sweep itself scales with workers.
	sweepScaling := func(clients, k int, set *afl.BidSet, cfg afl.Config, scaleWidths []int) {
		eng, err := afl.NewEngineSet(set, cfg)
		if err != nil {
			fatal(err)
		}
		for _, w := range scaleWidths {
			w := w
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.RunCtx(ctx, afl.RunOptions{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
			m := measurement{
				Path:        fmt.Sprintf("sweep_w%d", w),
				Clients:     clients,
				K:           k,
				Workers:     w,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			rep.Results = append(rep.Results, m)
			perPath[m.Path] = m
			fmt.Fprintf(os.Stderr, "%-24s I=%-7d %12.0f ns/op %10d allocs/op %12d B/op\n",
				m.Path, clients, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		}
	}

	for _, clients := range sizes {
		p := workload.NewDefaultParams()
		p.Clients = clients
		if clients < 200 {
			p.K = 10 // the paper's K=20 is infeasible below ~200 clients
		}
		bids, err := workload.Generate(p)
		if err != nil {
			fatal(err)
		}
		cfg := p.Config()
		for _, path := range seqPaths {
			op := path.run(bids, cfg)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !op() {
						b.Fatal("sweep infeasible")
					}
				}
			})
			m := measurement{
				Path:        path.name,
				Clients:     clients,
				K:           p.K,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			rep.Results = append(rep.Results, m)
			perPath[path.name] = m
			fmt.Fprintf(os.Stderr, "%-24s I=%-5d %12.0f ns/op %10d allocs/op %12d B/op\n",
				path.name, clients, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		}
		sweepScaling(clients, p.K, afl.CompileBids(bids), cfg, sweepWidths)
	}

	// --- columnar large-population rows ---
	//
	// Single-minded populations (one bid per client, the market-scale
	// shape of the motivating workloads) at 10⁴ clients always, 10⁵ and
	// 10⁶ behind -big. The columnar row is the end-to-end facade path —
	// CompileBids once outside the op, RunSet per op, so engine
	// construction and the full sweep are both inside the number — and
	// sweep_w<n> rows extend the scaling table on a warm engine. The
	// frozen seed solver is deliberately absent here (hours per run at
	// 10⁶); the differential suite locks columnar↔seed bit-identity at
	// 10⁴ bids and workers ∈ {1, 8}, so these rows measure a proven-
	// identical path.
	colSizes := []int{10_000}
	if *big {
		colSizes = append(colSizes, 100_000, 1_000_000)
	}
	colWidths := sweepWidths
	if *quick {
		colWidths = sweepWidths[:1]
	}
	var colHead measurement
	for _, clients := range colSizes {
		cp := workload.NewDefaultParams()
		cp.Clients = clients
		cp.BidsPerUser = 1
		cbids, err := workload.Generate(cp)
		if err != nil {
			fatal(err)
		}
		ccfg := cp.Config()
		cset := afl.CompileBids(cbids)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := afl.RunSet(ctx, cset, ccfg)
				if err != nil || !res.Feasible {
					b.Fatal("columnar auction infeasible")
				}
			}
		})
		m := measurement{
			Path:        "columnar",
			Clients:     clients,
			K:           cp.K,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Results = append(rep.Results, m)
		perPath[m.Path] = m
		colHead = m
		fmt.Fprintf(os.Stderr, "%-24s I=%-7d %12.0f ns/op %10d allocs/op %12d B/op\n",
			m.Path, clients, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		sweepScaling(clients, cp.K, cset, ccfg, colWidths)
	}

	// --- approximate solver frontier: quality vs speed on the columnar WDP ---
	//
	// One row per (population, solver tier) on the single-minded columnar
	// workload: the exact sweep, coarse-to-fine at the default and at a
	// wide stride, and LP-guided rounding. Every row records auctions/s
	// and the tier's CERTIFIED approximation ratio on the measured
	// instance — the certificate lower-bounds what the exact sweep would
	// return, so a row reading (2×, 1.04) means twice the throughput at a
	// proven ≤ 4% cost loss. Before timing, one shot per size re-checks
	// the tier contracts on the exact instance being measured: stride-1
	// coarse-to-fine must be bit-identical to the exact sweep, every
	// approximate tier must attach a certificate with Ratio ≥ 1 and a
	// lower bound that cannot exceed the exact cost.
	fSizes := []int{10_000}
	if *frontier {
		fSizes = append(fSizes, 100_000)
		if *big {
			fSizes = append(fSizes, 1_000_000)
		}
	}
	fTiers := []struct {
		name string
		opts []afl.Option
	}{
		{"frontier_exact", nil},
		{"frontier_coarse", []afl.Option{afl.WithSolver(afl.SolverCoarseFine)}},
		{"frontier_coarse_s16", []afl.Option{afl.WithSolver(afl.SolverCoarseFine), afl.WithStride(16)}},
		{"frontier_lp", []afl.Option{afl.WithSolver(afl.SolverLPRound)}},
	}
	if *quick {
		fTiers = fTiers[:2]
	}
	frontierCost := map[string]float64{} // at the largest frontier size
	for _, clients := range fSizes {
		fp := workload.NewDefaultParams()
		fp.Clients = clients
		fp.BidsPerUser = 1
		fbids, err := workload.Generate(fp)
		if err != nil {
			fatal(err)
		}
		fcfg := fp.Config()
		fset := afl.CompileBids(fbids)

		exactRes, err := afl.RunSet(ctx, fset, fcfg)
		if err != nil || !exactRes.Feasible {
			fatal(fmt.Errorf("frontier workload infeasible at %d clients: %v", clients, err))
		}
		if exactRes.Cert != nil {
			fatal(fmt.Errorf("exact tier attached a certificate at %d clients", clients))
		}
		dense, err := afl.RunSet(ctx, fset, fcfg, afl.WithSolver(afl.SolverCoarseFine), afl.WithStride(1))
		if err != nil {
			fatal(err)
		}
		if dense.Cert == nil || dense.Cert.Solved != dense.Cert.Candidates {
			fatal(fmt.Errorf("stride-1 coarse-to-fine skipped candidates at %d clients", clients))
		}
		dense.Cert = nil
		if !reflect.DeepEqual(dense, exactRes) {
			fatal(fmt.Errorf("stride-1 coarse-to-fine diverges from the exact sweep at %d clients", clients))
		}

		for _, tier := range fTiers {
			probe := exactRes
			ratio := 1.0
			solver := afl.SolverExact
			if tier.opts != nil {
				probe, err = afl.RunSet(ctx, fset, fcfg, tier.opts...)
				if err != nil {
					fatal(err)
				}
				c := probe.Cert
				if c == nil || c.Ratio < 1 || c.LowerBound > exactRes.Cost*(1+1e-9) {
					fatal(fmt.Errorf("%s certificate contract violated at %d clients: %+v", tier.name, clients, c))
				}
				ratio, solver = c.Ratio, c.Solver
			}
			frontierCost[tier.name] = probe.Cost
			opts := tier.opts
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := afl.RunSet(ctx, fset, fcfg, opts...)
					if err != nil || !res.Feasible {
						b.Fatal("frontier auction infeasible")
					}
				}
			})
			m := measurement{
				Path:           tier.name,
				Clients:        clients,
				K:              fp.K,
				Iterations:     r.N,
				NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp:    r.AllocsPerOp(),
				BytesPerOp:     r.AllocedBytesPerOp(),
				AuctionsPerSec: float64(r.N) * 1e9 / float64(r.T.Nanoseconds()),
				Solver:         solver.String(),
				Ratio:          ratio,
			}
			rep.Results = append(rep.Results, m)
			perPath[m.Path] = m
			fmt.Fprintf(os.Stderr, "%-24s I=%-7d %12.0f ns/op %10.2f auctions/s ratio=%.4f\n",
				m.Path, clients, m.NsPerOp, m.AuctionsPerSec, m.Ratio)
		}
	}

	// --- pooled dense-simplex alloc guard ---
	//
	// A master-shaped mixed-relation LP (coverage GE rows over convexity
	// LE rows, the layout every column-generation master has) solved in a
	// steady-state loop: with the tableau pool warm, allocs/op counts
	// only what escapes in the Solution. A regression here means the
	// pool stopped recycling (the companion test in internal/lp fails
	// CI at ≤ 6 objects; the row records the measured number).
	{
		lpp := masterShapedLP(30, 40, 120)
		if sol, err := lp.Solve(lpp); err != nil || sol.Status != lp.Optimal {
			fatal(fmt.Errorf("lp_simplex warmup: status %v err %v", sol.Status, err))
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lp.Solve(lpp); err != nil {
					b.Fatal(err)
				}
			}
		})
		m := measurement{
			Path:        "lp_simplex",
			Clients:     lpp.NumVars,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Results = append(rep.Results, m)
		perPath[m.Path] = m
		fmt.Fprintf(os.Stderr, "%-24s vars=%-4d %12.0f ns/op %10d allocs/op %12d B/op\n",
			m.Path, lpp.NumVars, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}

	// --- lazy exact-critical pricing vs the frozen eager-serial seed ---
	//
	// payments_seed is the pre-lazification baseline: internal/seedwdp
	// prices every candidate T̂_g eagerly with the blind-doubling bracket.
	// payments_eager is the eager reference on the current engine
	// (seedwdp.RunEager, seeded brackets), payments_lazy prices only
	// the chosen T̂_g sequentially, and payments_parallel fans the
	// per-winner bisections over GOMAXPROCS workers.
	pp := workload.NewDefaultParams()
	pp.Clients, pp.T, pp.K = 200, 10, 4
	if *quick {
		pp.Clients, pp.K = 60, 3 // T stays 10: window generation needs 2J ≤ T draws
	}
	pbids, err := workload.Generate(pp)
	if err != nil {
		fatal(err)
	}
	pcfg := pp.Config()
	pcfg.PaymentRule = afl.RuleExactCritical
	pcfg.ExcludeOwnBids = true
	pcfg.ReservePrice = 10 * pp.CostHi
	rep.Payments = paymentsConfig{Clients: pp.Clients, T: pp.T, K: pp.K, Reserve: pcfg.ReservePrice}

	// One-shot sanity check before timing anything: the lazy and parallel
	// paths must reproduce the eager reference's chosen-T̂_g payments
	// bit-for-bit (the differential suite proves this over a corpus; this
	// guards the exact instance being benchmarked).
	eagerRes, err := seedwdp.RunEager(pbids, pcfg)
	if err != nil || !eagerRes.Feasible {
		fatal(fmt.Errorf("payments workload infeasible under the eager reference: %v", err))
	}
	for _, workers := range []int{1, -1} {
		got, err := afl.Run(ctx, pbids, pcfg, afl.WithWorkers(workers))
		if err != nil {
			fatal(err)
		}
		if got.Tg != eagerRes.Tg || !reflect.DeepEqual(got.Winners, eagerRes.Winners) {
			fatal(fmt.Errorf("lazy pricing (workers=%d) diverges from the eager reference", workers))
		}
	}

	paymentPaths := []struct {
		name string
		op   func() bool
	}{
		{"payments_seed", func() bool {
			res, err := seedwdp.RunAuction(pbids, pcfg)
			return err == nil && res.Feasible
		}},
		{"payments_eager", func() bool {
			res, err := seedwdp.RunEager(pbids, pcfg)
			return err == nil && res.Feasible
		}},
		{"payments_lazy", func() bool {
			res, err := afl.Run(ctx, pbids, pcfg, afl.WithWorkers(1))
			return err == nil && res.Feasible
		}},
		{"payments_parallel", func() bool {
			res, err := afl.Run(ctx, pbids, pcfg, afl.WithWorkers(-1))
			return err == nil && res.Feasible
		}},
	}
	for _, path := range paymentPaths {
		op := path.op
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !op() {
					b.Fatal("payments auction infeasible")
				}
			}
		})
		m := measurement{
			Path:        path.name,
			Clients:     pp.Clients,
			K:           pp.K,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Results = append(rep.Results, m)
		perPath[path.name] = m
		fmt.Fprintf(os.Stderr, "%-24s I=%-5d %12.0f ns/op %10d allocs/op %12d B/op\n",
			path.name, pp.Clients, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}

	// --- cross-auction throughput: goroutine-per-auction vs batch engine ---
	//
	// The unit here is auctions per second over a fleet of independent
	// instances, not the latency of one sweep. throughput_naive is the
	// obvious fleet runner — one goroutine per auction, each paying a
	// full engine construction — and throughput_batch is afl.RunBatch:
	// one clamped worker pool claiming instances from an atomic cursor,
	// each worker holding a pooled engine across its instances. The first
	// -workers width is the headline (plain path names); further widths
	// are recorded with a _w<n> suffix so baseline-guarded tests keep
	// resolving the stable names.
	ti, tc := 1000, 100
	if *quick {
		ti, tc = 32, 40
	}
	// Instance generation scans seeds upward and keeps only feasible
	// auctions (a small fraction of random workloads at Clients=100/K=10
	// admit no full-coverage T̂_g); the serial afl.Run used for the
	// screen doubles as the bit-identity reference below, so nothing is
	// solved twice.
	insts := make([]afl.Instance, 0, ti)
	serial := make([]afl.Result, 0, ti)
	for seed := int64(3000); len(insts) < ti; seed++ {
		tp := workload.NewDefaultParams()
		tp.Clients = tc
		if tc < 200 {
			tp.K = 10
		}
		if *quick {
			tp.T, tp.K = 15, 4
		}
		tp.Seed = seed
		tbids, err := workload.Generate(tp)
		if err != nil {
			fatal(err)
		}
		inst := afl.Instance{Bids: tbids, Cfg: tp.Config()}
		res, err := afl.Run(ctx, inst.Bids, inst.Cfg)
		if err != nil || !res.Feasible {
			continue
		}
		insts = append(insts, inst)
		serial = append(serial, res)
	}
	tk := insts[0].Cfg.K

	// One-shot sanity check before timing anything: every measured width
	// must reproduce the serial afl.Run outcome of every instance
	// bit-for-bit. This also warms the engine shape pool, so the timed
	// batch path measures steady-state reuse, which is how a fleet runs.
	for _, width := range widths {
		outcomes, err := afl.RunBatch(ctx, insts, afl.WithWorkers(width))
		if err != nil {
			fatal(err)
		}
		for i, oc := range outcomes {
			if oc.Err != nil || !reflect.DeepEqual(oc.Result, serial[i]) {
				fatal(fmt.Errorf("batch (workers=%d) diverges from serial Run on instance %d: %v", width, i, oc.Err))
			}
		}
	}
	// The reference results are hundreds of MB of live heap; drop them
	// before timing so every GC cycle during measurement marks only the
	// measured path's own live set.
	serial = nil

	effective := func(width int) int {
		w := width
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w > ti {
			w = ti
		}
		return w
	}
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Workers = effective(widths[0])

	// A fleet op is seconds long, so per-path iteration counts are tiny,
	// and on a shared single-core runner the machine speed itself drifts
	// by more than the few-percent structural gap between the paths
	// (frequency scaling, neighbour noise — the drift persists even with
	// GC disabled). Whole-fleet A/B timings are therefore unreliable at
	// this resolution. Instead the fleet is measured *paired*: the
	// instance set is split into small chunks, every chunk is timed once
	// per path back-to-back with the in-chunk order rotating, and each
	// path's per-round total is the sum of its chunk times. Low-frequency
	// drift then hits every path almost equally and cancels in the
	// comparison; each path keeps its best round. Allocation counts come
	// from the mutator's MemStats deltas over the same chunk ops.
	type tputPath struct {
		name  string
		width int
		op    func(chunk []afl.Instance) bool
	}
	// The naive fleet runner collects its results like the batch engine
	// does (a marketplace that drops auction outcomes has not run the
	// auctions), so both paths hold the same live set and the comparison
	// isolates scheduling and engine reuse.
	// The naive runner has no width of its own: one goroutine per auction
	// runs at GOMAXPROCS, so its row records that width.
	tpaths := []tputPath{{name: "throughput_naive", width: 0, op: func(chunk []afl.Instance) bool {
		var wg sync.WaitGroup
		var failed atomic.Bool
		results := make([]afl.Result, len(chunk))
		for i, inst := range chunk {
			wg.Add(1)
			go func(i int, inst afl.Instance) {
				defer wg.Done()
				res, err := afl.Run(ctx, inst.Bids, inst.Cfg)
				if err != nil || !res.Feasible {
					failed.Store(true)
				}
				results[i] = res
			}(i, inst)
		}
		wg.Wait()
		return !failed.Load() && len(results) == len(chunk)
	}}}
	for i, width := range widths {
		name := "throughput_batch"
		if i > 0 {
			name = fmt.Sprintf("throughput_batch_w%d", effective(width))
		}
		width := width
		tpaths = append(tpaths, tputPath{name: name, width: width, op: func(chunk []afl.Instance) bool {
			outcomes, err := afl.RunBatch(ctx, chunk, afl.WithWorkers(width))
			if err != nil {
				return false
			}
			for _, oc := range outcomes {
				if oc.Err != nil || !oc.Result.Feasible {
					return false
				}
			}
			return true
		}})
	}

	rounds, chunkSize := 3, 50
	if *quick {
		rounds = 1
	}
	type tputBest struct {
		ns     float64
		allocs uint64
		bytes  uint64
	}
	type tputAcc struct {
		ns     time.Duration
		allocs uint64
		bytes  uint64
	}
	best := make(map[string]tputBest, len(tpaths))
	var ms0, ms1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.GC()
		runtime.GC()
		acc := make([]tputAcc, len(tpaths))
		for c := 0; c*chunkSize < len(insts); c++ {
			hi := (c + 1) * chunkSize
			if hi > len(insts) {
				hi = len(insts)
			}
			chunk := insts[c*chunkSize : hi]
			// Rotate which path goes first on this chunk so every path
			// samples every in-chunk position (and its GC phase) equally.
			for o := 0; o < len(tpaths); o++ {
				p := (r + c + o) % len(tpaths)
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				if !tpaths[p].op(chunk) {
					fatal(fmt.Errorf("throughput path %s failed", tpaths[p].name))
				}
				acc[p].ns += time.Since(t0)
				runtime.ReadMemStats(&ms1)
				acc[p].allocs += ms1.Mallocs - ms0.Mallocs
				acc[p].bytes += ms1.TotalAlloc - ms0.TotalAlloc
			}
		}
		for p, pth := range tpaths {
			ns := float64(acc[p].ns.Nanoseconds())
			b, seen := best[pth.name]
			if !seen || ns < b.ns {
				b.ns = ns
			}
			if !seen || acc[p].allocs < b.allocs {
				b.allocs = acc[p].allocs
			}
			if !seen || acc[p].bytes < b.bytes {
				b.bytes = acc[p].bytes
			}
			best[pth.name] = b
		}
	}
	for _, pth := range tpaths {
		b := best[pth.name]
		m := measurement{
			Path:           pth.name,
			Clients:        tc,
			K:              tk,
			Iterations:     rounds,
			NsPerOp:        b.ns / float64(ti),
			AllocsPerOp:    int64(b.allocs) / int64(ti),
			BytesPerOp:     int64(b.bytes) / int64(ti),
			Workers:        effective(pth.width),
			Instances:      ti,
			AuctionsPerSec: float64(ti) * 1e9 / b.ns,
		}
		rep.Results = append(rep.Results, m)
		perPath[pth.name] = m
		fmt.Fprintf(os.Stderr, "%-24s I=%-5d %12.0f ns/auction %8d allocs/auction %10.1f auctions/s (workers=%d)\n",
			pth.name, tc, m.NsPerOp, m.AllocsPerOp, m.AuctionsPerSec, m.Workers)
	}

	seed := perPath["seed"]
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	// The throughput ratios compare the naive runner with the batch row
	// of its width, if one ran.
	naive := perPath["throughput_naive"]
	var tputBatch measurement
	for _, pth := range tpaths[1:] {
		if m := perPath[pth.name]; m.Workers == naive.Workers {
			tputBatch = m
			break
		}
	}
	if tputBatch.Path == "" {
		fmt.Fprintf(os.Stderr, "note: no batch throughput row ran at the naive runner's width %d (GOMAXPROCS); throughput ratios reported as 0 (add 0 or %d to -batch-workers)\n",
			naive.Workers, naive.Workers)
	}
	pseed := perPath["payments_seed"]
	rep.Summary = summary{
		Clients:                 seed.Clients,
		SpeedupSequential:       ratio(seed.NsPerOp, perPath["incremental"].NsPerOp),
		SpeedupConcurrent:       ratio(seed.NsPerOp, perPath["incremental_concurrent"].NsPerOp),
		SpeedupEngineReuse:      ratio(seed.NsPerOp, perPath["engine_reuse"].NsPerOp),
		AllocRatio:              ratio(float64(seed.AllocsPerOp), float64(perPath["incremental"].AllocsPerOp)),
		BytesRatio:              ratio(float64(seed.BytesPerOp), float64(perPath["incremental"].BytesPerOp)),
		PaymentsClients:         pseed.Clients,
		SpeedupPayments:         ratio(pseed.NsPerOp, perPath["payments_lazy"].NsPerOp),
		SpeedupPaymentsParallel: ratio(pseed.NsPerOp, perPath["payments_parallel"].NsPerOp),
		ThroughputInstances:     ti,
		ThroughputClients:       tc,
		SpeedupThroughput:       ratio(tputBatch.AuctionsPerSec, naive.AuctionsPerSec),
		ThroughputAllocRatio:    ratio(float64(naive.AllocsPerOp), float64(tputBatch.AllocsPerOp)),
		ColumnarClients:         colHead.Clients,
		ColumnarSolveSec:        colHead.NsPerOp / 1e9,
		SpeedupSweepWide: ratio(perPath["sweep_w1"].NsPerOp,
			perPath[fmt.Sprintf("sweep_w%d", colWidths[len(colWidths)-1])].NsPerOp),
	}

	// Frontier headline: the fastest approximate tier inside each quality
	// envelope at the largest frontier population (perPath keeps the last,
	// i.e. largest, size of every path).
	fexact := perPath["frontier_exact"]
	rep.Summary.FrontierClients = fexact.Clients
	var tight, loose measurement
	for _, name := range []string{"frontier_coarse", "frontier_coarse_s16", "frontier_lp"} {
		m, ok := perPath[name]
		if !ok || m.Clients != fexact.Clients {
			continue
		}
		if m.Ratio <= 1.05+1e-9 && (tight.Path == "" || m.NsPerOp < tight.NsPerOp) {
			tight = m
		}
		if m.Ratio <= 1.2+1e-9 && (loose.Path == "" || m.NsPerOp < loose.NsPerOp) {
			loose = m
		}
	}
	if tight.Path != "" {
		rep.Summary.SpeedupFrontierTight = ratio(fexact.NsPerOp, tight.NsPerOp)
		rep.Summary.FrontierTightRatio = tight.Ratio
		rep.Summary.FrontierTightPath = tight.Path
	}
	if loose.Path != "" {
		rep.Summary.SpeedupFrontierLoose = ratio(fexact.NsPerOp, loose.NsPerOp)
		rep.Summary.FrontierLooseRatio = loose.Ratio
		rep.Summary.FrontierLoosePath = loose.Path
	}
	if lpCost, ok := frontierCost["frontier_lp"]; ok && lpCost > 0 {
		rep.Summary.FrontierLPCostRatio = frontierCost["frontier_exact"] / lpCost
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (seq speedup %.2fx, alloc ratio %.1fx, payments speedup %.1fx, throughput speedup %.2fx, columnar %d clients in %.2fs)\n",
		*out, rep.Summary.SpeedupSequential, rep.Summary.AllocRatio, rep.Summary.SpeedupPayments, rep.Summary.SpeedupThroughput,
		rep.Summary.ColumnarClients, rep.Summary.ColumnarSolveSec)
}

// masterShapedLP builds a deterministic LP with the shape of a
// column-generation restricted master: ge coverage rows (≥, RHS 2) over
// 0/1 column incidences, le convexity rows (≤, RHS 1) partitioning the
// variables, positive costs. Every variable covers a contiguous band of
// coverage rows — the windowed-schedule structure of real master columns
// — and the warmup Solve in main fails fast if a draw ever turned out
// infeasible (the generator is seeded, so it never does).
func masterShapedLP(ge, le, vars int) lp.Problem {
	rng := rand.New(rand.NewSource(7))
	p := lp.Problem{NumVars: vars, Objective: make([]float64, vars)}
	cover := make([][]float64, ge)
	for i := range cover {
		cover[i] = make([]float64, vars)
	}
	conv := make([][]float64, le)
	for i := range conv {
		conv[i] = make([]float64, vars)
	}
	for j := 0; j < vars; j++ {
		p.Objective[j] = 1 + rng.Float64()*9
		conv[j%le][j] = 1
		lo := rng.Intn(ge)
		hi := lo + 1 + rng.Intn(6)
		for r := lo; r < hi && r < ge; r++ {
			cover[r][j] = 1
		}
	}
	for r := 0; r < ge; r++ {
		p.Constraints = append(p.Constraints, lp.Constraint{Coef: cover[r], Rel: lp.GE, RHS: 2})
	}
	for r := 0; r < le; r++ {
		p.Constraints = append(p.Constraints, lp.Constraint{Coef: conv[r], Rel: lp.LE, RHS: 1})
	}
	return p
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcore:", err)
	os.Exit(1)
}
