package experiments

import (
	"context"
	"math"
	"sort"
	"time"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/plot"
	"github.com/fedauction/afl/internal/stats"
	"github.com/fedauction/afl/internal/workload"
)

// Ablations maps ablation IDs to runners. These quantify the design
// choices DESIGN.md calls out: the payment rule, the representative-
// schedule rule, the lazy-heap optimization, and the dropout-robustness
// extension (the paper's §VIII future-work scenario).
var Ablations = map[string]Runner{
	"payment-rules": AblationPaymentRules,
	"schedule-rule": AblationScheduleRule,
	"redundancy":    AblationRedundancy,
	"lazy-vs-naive": AblationLazyVsNaive,
	"selection":     AblationSelection,
	"timing":        AblationTiming,
	"vcg":           AblationVCG,
	"online":        AblationOnline,
	"diurnal":       AblationDiurnal,
}

// AblationIDs returns the ablation registry keys in order.
func AblationIDs() []string {
	ids := make([]string, 0, len(Ablations))
	for id := range Ablations {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// AblationPaymentRules compares the server's overpayment — total payment
// divided by total claimed cost — under the three payment rules across
// client counts. Algorithm 3 and the exact rule trade truthfulness
// guarantees against budget; pay-as-bid is the (non-truthful) floor at
// exactly 1.
func AblationPaymentRules(opts Options) Figure {
	is := []int{100, 200, 400}
	if opts.Quick {
		is = []int{60, 120}
	}
	fig := Figure{
		ID:    "payment-rules",
		Title: "Overpayment ratio (payments / social cost) by payment rule",
		Chart: plot.Chart{Title: "Ablation: payment rules", XLabel: "clients I", YLabel: "payments / cost"},
	}
	rules := []core.PaymentRule{core.RulePayBid, core.RuleCritical, core.RuleExactCritical}
	for _, rule := range rules {
		series := plot.Series{Name: rule.String()}
		for _, clientCount := range is {
			var ratios []float64
			for trial := 0; trial < opts.trials(); trial++ {
				p := workload.NewDefaultParams()
				p.Clients = clientCount
				p.T = 15
				p.K = 4
				p.Seed = opts.Seed + int64(trial)*31 + int64(clientCount)
				bids, err := workload.Generate(p)
				if err != nil {
					continue
				}
				cfg := p.Config()
				cfg.PaymentRule = rule
				cfg.ExcludeOwnBids = true
				cfg.ReservePrice = 10 * p.CostHi
				res, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
				if err != nil || !res.Feasible || res.Cost <= 0 {
					continue
				}
				ratios = append(ratios, res.TotalPayment()/res.Cost)
			}
			if r := meanOf(ratios); !math.IsNaN(r) {
				series.Points = append(series.Points, plot.Point{X: float64(clientCount), Y: r})
			}
		}
		fig.Chart.Series = append(fig.Chart.Series, series)
	}
	for _, s := range fig.Chart.Series {
		if len(s.Points) > 0 {
			var ys []float64
			for _, p := range s.Points {
				ys = append(ys, p.Y)
			}
			fig.Notes = append(fig.Notes, note("%s: mean overpayment ×%.3f", s.Name, meanOf(ys)))
		}
	}
	return fig
}

// AblationScheduleRule quantifies what the paper's least-covered
// representative schedule buys over naive earliest-fit: social cost and
// the fraction of WDPs the naive rule fails to cover at all.
func AblationScheduleRule(opts Options) Figure {
	tgs := []int{6, 10, 14, 18}
	clients := 200
	if opts.Quick {
		tgs = []int{6, 10}
		clients = 100
	}
	fig := Figure{
		ID:    "schedule-rule",
		Title: "Representative-schedule rule: least-covered (paper) vs earliest-fit",
		Chart: plot.Chart{Title: "Ablation: schedule rule", XLabel: "T̂_g", YLabel: "social cost"},
	}
	smart := plot.Series{Name: "least-covered"}
	naive := plot.Series{Name: "earliest-fit"}
	naiveFails, probes := 0, 0
	for _, tg := range tgs {
		var smartCosts, naiveCosts []float64
		for trial := 0; trial < opts.trials(); trial++ {
			p := workload.NewDefaultParams()
			p.Clients = clients
			p.T = tg
			p.K = 4
			p.Seed = opts.Seed + int64(trial)*17 + int64(tg)
			bids, err := workload.Generate(p)
			if err != nil {
				continue
			}
			cfg := p.Config()
			// Both rules solve the same population: compile it once.
			set := core.CompileBids(bids)
			qual := core.Qualified(bids, tg, cfg)
			s := core.SolveWDPSet(set, qual, tg, cfg)
			if !s.Feasible {
				continue
			}
			probes++
			smartCosts = append(smartCosts, s.Cost)
			nCfg := cfg
			nCfg.ScheduleRule = core.ScheduleEarliest
			n := core.SolveWDPSet(set, qual, tg, nCfg)
			if !n.Feasible {
				naiveFails++
				continue
			}
			naiveCosts = append(naiveCosts, n.Cost)
		}
		if c := meanOf(smartCosts); !math.IsNaN(c) {
			smart.Points = append(smart.Points, plot.Point{X: float64(tg), Y: c})
		}
		if c := meanOf(naiveCosts); !math.IsNaN(c) {
			naive.Points = append(naive.Points, plot.Point{X: float64(tg), Y: c})
		}
	}
	fig.Chart.Series = []plot.Series{smart, naive}
	fig.Notes = append(fig.Notes,
		note("earliest-fit failed to cover %d/%d WDPs the paper's rule solved", naiveFails, probes))
	return fig
}

// AblationRedundancy explores the paper's future-work scenario: clients
// drop out mid-training. Buying redundancy — auctioning with coverage
// K+r instead of K — trades social cost for completion probability. For
// each dropout probability the Monte Carlo measures the fraction of
// global iterations that still receive at least K updates.
func AblationRedundancy(opts Options) Figure {
	dropouts := []float64{0, 0.1, 0.2, 0.3}
	redundancies := []int{0, 2, 4}
	const mcRuns = 200
	fig := Figure{
		ID:    "redundancy",
		Title: "Round-completion rate vs client dropout, by coverage redundancy",
		Chart: plot.Chart{Title: "Ablation: dropout redundancy", XLabel: "dropout probability", YLabel: "fraction of rounds with ≥K updates"},
	}
	p := workload.NewDefaultParams()
	p.Clients = 200
	p.T = 15
	p.K = 4
	p.Seed = opts.Seed + 77
	if opts.Quick {
		p.Clients = 120
	}
	bids, err := workload.Generate(p)
	if err != nil {
		fig.Notes = append(fig.Notes, note("workload error: %v", err))
		return fig
	}
	rng := stats.NewRNG(opts.Seed + 101)
	for _, r := range redundancies {
		cfg := p.Config()
		cfg.K += r
		res, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
		if err != nil || !res.Feasible {
			continue
		}
		// Per-round scheduled counts.
		scheduled := make([]int, res.Tg)
		for _, w := range res.Winners {
			for _, t := range w.Slots {
				scheduled[t-1]++
			}
		}
		series := plot.Series{Name: note("K+%d (cost %.0f)", r, res.Cost)}
		for _, dp := range dropouts {
			completed := 0
			total := 0
			for run := 0; run < mcRuns; run++ {
				for _, n := range scheduled {
					alive := 0
					for i := 0; i < n; i++ {
						if !rng.Bernoulli(dp) {
							alive++
						}
					}
					total++
					if alive >= p.K {
						completed++
					}
				}
			}
			series.Points = append(series.Points, plot.Point{X: dp, Y: float64(completed) / float64(total)})
		}
		fig.Chart.Series = append(fig.Chart.Series, series)
		fig.Notes = append(fig.Notes,
			note("redundancy %d: cost %.1f, completion at p=0.2: %.3f", r, res.Cost, seriesAt(series, 0.2)))
	}
	return fig
}

func seriesAt(s plot.Series, x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return math.NaN()
}

// AblationLazyVsNaive measures the lazy-heap A_winner against a direct
// transcription of Algorithm 2 that recomputes every representative
// schedule each round. Both produce identical selections (asserted in the
// core test suite); this ablation shows the asymptotic gap.
func AblationLazyVsNaive(opts Options) Figure {
	is := []int{200, 500, 1000, 2000}
	if opts.Quick {
		is = []int{100, 300}
	}
	fig := Figure{
		ID:    "lazy-vs-naive",
		Title: "A_winner implementations: lazy heap vs direct transcription",
		Chart: plot.Chart{Title: "Ablation: lazy vs naive A_winner", XLabel: "clients I", YLabel: "runtime (ms)"},
	}
	lazy := plot.Series{Name: "lazy heap"}
	naive := plot.Series{Name: "direct transcription"}
	for _, clientCount := range is {
		p := workload.NewDefaultParams()
		p.Clients = clientCount
		p.T = 20
		p.K = 8
		p.Seed = opts.Seed + int64(clientCount)
		bids, err := workload.Generate(p)
		if err != nil {
			continue
		}
		cfg := p.Config()
		qual := core.Qualified(bids, p.T, cfg)
		t0 := time.Now()
		fast := core.SolveWDP(bids, qual, p.T, cfg)
		lazyMS := float64(time.Since(t0).Microseconds()) / 1000
		t1 := time.Now()
		slowCost, feasible := naiveWDP(bids, qual, p.T, cfg.K)
		naiveMS := float64(time.Since(t1).Microseconds()) / 1000
		if !fast.Feasible || !feasible {
			continue
		}
		if math.Abs(fast.Cost-slowCost) > 1e-6 {
			fig.Notes = append(fig.Notes, note("WARNING: cost mismatch at I=%d: %.3f vs %.3f", clientCount, fast.Cost, slowCost))
		}
		lazy.Points = append(lazy.Points, plot.Point{X: float64(clientCount), Y: lazyMS})
		naive.Points = append(naive.Points, plot.Point{X: float64(clientCount), Y: naiveMS})
	}
	fig.Chart.Series = []plot.Series{lazy, naive}
	if n, m := len(lazy.Points), len(naive.Points); n > 0 && m > 0 {
		fig.Notes = append(fig.Notes, note("largest instance: lazy %.1f ms vs naive %.1f ms (×%.1f)",
			lazy.Points[n-1].Y, naive.Points[m-1].Y, naive.Points[m-1].Y/math.Max(lazy.Points[n-1].Y, 1e-9)))
	}
	return fig
}

// naiveWDP is a direct transcription of Algorithm 2 used only for the
// runtime ablation: every round it recomputes the representative schedule
// and marginal utility of every candidate from scratch.
func naiveWDP(bids []core.Bid, qualified []int, tg, k int) (float64, bool) {
	gamma := make([]int, tg+1)
	inC := make(map[int]bool, len(qualified))
	for _, idx := range qualified {
		inC[idx] = true
	}
	covered, cost := 0, 0.0
	repGain := func(idx int) (slots []int, gain int) {
		b := bids[idx]
		hi := b.End
		if hi > tg {
			hi = tg
		}
		cand := make([]int, 0, hi-b.Start+1)
		for t := b.Start; t <= hi; t++ {
			cand = append(cand, t)
		}
		sort.Slice(cand, func(x, y int) bool {
			if gamma[cand[x]] != gamma[cand[y]] {
				return gamma[cand[x]] < gamma[cand[y]]
			}
			return cand[x] < cand[y]
		})
		if len(cand) > b.Rounds {
			cand = cand[:b.Rounds]
		}
		for _, t := range cand {
			if gamma[t] < k {
				gain++
			}
		}
		return cand, gain
	}
	for covered < k*tg {
		best, bestGain := -1, 0
		bestKey := math.Inf(1)
		for _, idx := range qualified {
			if !inC[idx] {
				continue
			}
			_, gain := repGain(idx)
			if gain == 0 {
				continue
			}
			key := bids[idx].Price / float64(gain)
			if key < bestKey || (key == bestKey && idx < best) {
				bestKey, best, bestGain = key, idx, gain
			}
		}
		if best == -1 {
			return 0, false
		}
		_ = bestGain
		slots, _ := repGain(best)
		for _, sib := range qualified {
			if bids[sib].Client == bids[best].Client {
				delete(inC, sib)
			}
		}
		for _, t := range slots {
			if gamma[t] < k {
				covered++
			}
			gamma[t]++
		}
		cost += bids[best].Price
	}
	return cost, true
}
