// Package experiments regenerates every figure of the paper's evaluation
// (§VII): performance ratios of A_winner and of all four algorithms
// (Fig. 3, Fig. 4), social-cost comparisons across client counts, bid
// counts and fixed T̂_g (Fig. 5, Fig. 6, Fig. 7), running time (Fig. 8),
// and payment versus claimed cost of winners (Fig. 9).
//
// Each runner returns a Figure holding a renderable chart, CSV-ready
// series, and measured headline numbers. Runners accept an Options with a
// Quick mode (small instances, used by unit tests and CI) and a full mode
// that matches the paper's scales.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"github.com/fedauction/afl/internal/baseline"
	"github.com/fedauction/afl/internal/colgen"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/plot"
)

// Options tunes experiment scale.
type Options struct {
	// Seed drives every workload draw; equal seeds reproduce figures
	// exactly.
	Seed int64
	// Trials averages each data point over this many seeded populations.
	// Zero means 3 (1 in Quick mode).
	Trials int
	// Quick shrinks instance sizes so the whole suite runs in seconds;
	// used by tests and the benchmark harness's -short mode.
	Quick bool
	// Workers bounds the pool the per-seed trial loops fan out over:
	// n > 0 uses n workers, anything else selects GOMAXPROCS. Every
	// trial derives its own seeded RNG and results are merged back in
	// trial order, so figures — and their CSV serializations — are
	// byte-identical for every worker count. Timed measurements (Fig. 8)
	// never run concurrently; only their workload generation does.
	Workers int
}

func (o Options) trials() int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick {
		return 1
	}
	return 3
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0) … fn(n-1) over a bounded worker pool and returns
// when every call has finished. Iterations must be independent: each
// writes only its own result slot. Workers claim indices in order from a
// shared counter, the calling goroutine being the first, so with one
// worker (or n <= 1) the calls run inline in index order, which is also
// the deterministic order parallel runs must reproduce through
// slot-indexed merges.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	core.FanOut(core.ClampWorkers(workers, n), func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	})
}

// Figure is one regenerated evaluation artifact.
type Figure struct {
	// ID is the paper's figure number, e.g. "fig5".
	ID string
	// Title describes what the paper's figure shows.
	Title string
	// Chart holds the measured series.
	Chart plot.Chart
	// Notes records headline observations (winners, reductions,
	// crossover points) for EXPERIMENTS.md.
	Notes []string
}

// Runner regenerates one figure.
type Runner func(Options) Figure

// Registry maps figure IDs to runners.
var Registry = map[string]Runner{
	"fig3":  Fig3,
	"fig4":  Fig4,
	"fig4j": Fig4J,
	"fig5":  Fig5,
	"fig6":  Fig6,
	"fig7":  Fig7,
	"fig8":  Fig8,
	"fig9":  Fig9,
}

// IDs returns the registry keys in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// mechanisms returns the three baselines in the paper's reporting order.
func mechanisms() []baseline.Mechanism {
	return []baseline.Mechanism{baseline.Greedy{}, baseline.AOnline{}, baseline.FCFS{}}
}

// auctionLowerBound computes a valid lower bound on the overall optimal
// social cost: the minimum over feasible T̂_g of a per-WDP lower bound.
// The optimum commits to some T̂_g, so min_T̂g LB(T̂_g) ≤ OPT; every
// feasible T̂_g is tightened with column generation (the restricted
// master's size tracks generated columns, not the population, so this
// stays affordable even at I=1800), falling back to the greedy dual
// objective where column generation cannot improve it.
func auctionLowerBound(bids []core.Bid, cfg core.Config, res core.Result) float64 {
	// First pass: the instance-tight rescaled dual bound, available for
	// free from every solved WDP.
	type cand struct {
		tg int
		lb float64
	}
	var cands []cand
	for _, wdp := range res.WDPs {
		if wdp.Feasible {
			cands = append(cands, cand{tg: wdp.Tg, lb: wdp.Dual.Bound()})
		}
	}
	if len(cands) == 0 {
		return math.NaN()
	}
	// Second pass: column generation (bounded) tightens the weakest
	// bounds, which otherwise dominate the min. Refining any subset keeps
	// the min valid; iterate until the current minimum is no longer a
	// refinable candidate or the refinement budget is spent.
	sort.Slice(cands, func(a, b int) bool { return cands[a].lb < cands[b].lb })
	opts := colgen.Options{MaxIterations: 20, MaxColumnsPerIter: 120, MaxColumns: 1200}
	for i := range cands {
		qual := core.Qualified(bids, cands[i].tg, cfg)
		cg := colgen.LowerBound(bids, qual, cands[i].tg, cfg, opts)
		if cg.Feasible && cg.LowerBound > cands[i].lb {
			cands[i].lb = cg.LowerBound
		}
	}
	best := math.Inf(1)
	for _, c := range cands {
		best = math.Min(best, c.lb)
	}
	return best
}

// wdpLowerBound bounds one fixed-T̂_g WDP from below, preferring the
// column-generation bound and falling back to the greedy dual.
func wdpLowerBound(bids []core.Bid, qualified []int, tg int, cfg core.Config) float64 {
	cg := colgen.LowerBound(bids, qualified, tg, cfg, colgen.Options{MaxIterations: 80})
	if cg.Feasible {
		return cg.LowerBound
	}
	return math.NaN()
}

// note formats a headline observation.
func note(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// meanOf filters NaNs and averages.
func meanOf(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
