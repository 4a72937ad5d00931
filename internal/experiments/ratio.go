package experiments

import (
	"context"
	"math"

	"github.com/fedauction/afl/internal/baseline"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/plot"
	"github.com/fedauction/afl/internal/workload"
)

// Fig3 reproduces "Performance ratio of A_winner": the ratio of the
// greedy WDP cost to the optimal (column-generation-bounded) WDP cost at
// different fixed numbers of global iterations T̂_g, one series per
// bids-per-client count J. Following §VII-B, every generated bid is
// qualified (θ and per-round times are drawn inside the feasible region
// for the swept T̂_g).
func Fig3(opts Options) Figure {
	tgs := []int{10, 20, 30, 40, 50}
	js := []int{2, 6, 10}
	clients, k := 100, 5
	if opts.Quick {
		tgs = []int{6, 10, 14}
		js = []int{2, 4}
		clients, k = 40, 3
	}
	fig := Figure{
		ID:    "fig3",
		Title: "Performance ratio of A_winner vs T̂_g (series: bids per client J)",
		Chart: plot.Chart{Title: "Fig. 3", XLabel: "T̂_g", YLabel: "performance ratio"},
	}
	// Every (J, T̂_g, trial) cell is an independent seeded solve, so the
	// whole grid fans out over the bounded pool; each job writes only its
	// own NaN-initialized slot and the aggregation below reads the slots
	// back in the original loop order, keeping the figure byte-identical
	// to a serial run for every worker count.
	trials := opts.trials()
	cells := make([]float64, len(js)*len(tgs)*trials)
	for i := range cells {
		cells[i] = math.NaN()
	}
	forEach(len(cells), opts.workers(), func(i int) {
		trial := i % trials
		tg := tgs[i/trials%len(tgs)]
		j := js[i/trials/len(tgs)]
		p := workload.NewDefaultParams()
		p.Clients = clients
		p.BidsPerUser = j
		p.T = tg
		p.K = k
		p.Seed = opts.Seed + int64(trial)*1009 + int64(tg)*31 + int64(j)
		// Keep every bid qualified at this T̂_g: θ below
		// 1−1/T̂_g and no per-round time limit.
		p.ThetaHi = math.Min(p.ThetaHi, 1-1/float64(tg)-1e-9)
		p.TMax = 0
		bids, err := workload.Generate(p)
		if err != nil {
			return
		}
		cfg := p.Config()
		qual := core.Qualified(bids, tg, cfg)
		res := core.SolveWDP(bids, qual, tg, cfg)
		if !res.Feasible {
			return
		}
		lb := wdpLowerBound(bids, qual, tg, cfg)
		if math.IsNaN(lb) || lb <= 0 {
			return
		}
		cells[i] = res.Cost / lb
	})
	worst := 0.0
	for ji, j := range js {
		series := plot.Series{Name: note("J=%d", j)}
		for ti := range tgs {
			base := (ji*len(tgs) + ti) * trials
			if r := meanOf(cells[base : base+trials]); !math.IsNaN(r) {
				series.Points = append(series.Points, plot.Point{X: float64(tgs[ti]), Y: r})
				worst = math.Max(worst, r)
			}
		}
		fig.Chart.Series = append(fig.Chart.Series, series)
	}
	fig.Notes = append(fig.Notes,
		note("worst observed A_winner ratio %.3f (paper: < 1.3)", worst))
	return fig
}

// Fig4 reproduces "Performance ratio of A_FL": the full-auction social
// cost of each algorithm divided by a lower bound on the overall optimum,
// across client counts I (J fixed to the default 5). Fig4J is the
// companion J sweep.
func Fig4(opts Options) Figure {
	is := []int{200, 600, 1000, 1400, 1800}
	if opts.Quick {
		is = []int{60, 120, 180}
	}
	return ratioSweep(opts, Figure{
		ID:    "fig4",
		Title: "Performance ratio of all algorithms vs number of clients I",
		Chart: plot.Chart{Title: "Fig. 4", XLabel: "clients I", YLabel: "performance ratio"},
	}, is, func(p *workload.Params, x int) { p.Clients = x })
}

// Fig4J reproduces the J half of Fig. 4: performance ratios across bids
// per client at the default I.
func Fig4J(opts Options) Figure {
	js := []int{2, 4, 6, 8, 10}
	if opts.Quick {
		js = []int{2, 4, 6}
	}
	return ratioSweep(opts, Figure{
		ID:    "fig4j",
		Title: "Performance ratio of all algorithms vs bids per client J",
		Chart: plot.Chart{Title: "Fig. 4 (J sweep)", XLabel: "bids per client J", YLabel: "performance ratio"},
	}, js, func(p *workload.Params, x int) {
		p.BidsPerUser = x
		if opts.Quick {
			p.Clients = 150
		} else {
			p.Clients = 600
		}
	})
}

// ratioSweep runs the four algorithms over populations produced by vary
// and reports cost / overall-optimum-lower-bound per point.
func ratioSweep(opts Options, fig Figure, xs []int, vary func(p *workload.Params, x int)) Figure {
	names := []string{"A_FL", "Greedy", "A_online", "FCFS"}
	acc := make(map[string]map[int][]float64)
	for _, n := range names {
		acc[n] = make(map[int][]float64)
	}
	// One job per (x, trial) cell: workload draw, the A_FL auction, the
	// shared lower bound and the three baselines, all on cell-local
	// state. Each job fills its own slot; the ordered merge below then
	// re-plays the serial append order exactly, so every worker count
	// produces the same accumulator contents and the same figure.
	trials := opts.trials()
	type cell struct {
		ratio map[string]float64 // per-algorithm ratio; nil when skipped
	}
	cells := make([]cell, len(xs)*trials)
	forEach(len(cells), opts.workers(), func(i int) {
		x := xs[i/trials]
		trial := i % trials
		p := workload.NewDefaultParams()
		if opts.Quick {
			p.T = 15
			p.K = 4
		}
		vary(&p, x)
		p.Seed = opts.Seed + int64(trial)*7919 + int64(x)
		bids, err := workload.Generate(p)
		if err != nil {
			return
		}
		cfg := p.Config()
		res, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
		if err != nil || !res.Feasible {
			return
		}
		lb := auctionLowerBound(bids, cfg, res)
		if math.IsNaN(lb) || lb <= 0 {
			return
		}
		ratio := map[string]float64{"A_FL": res.Cost / lb}
		for _, m := range mechanisms() {
			if out, ok := baseline.RunOverTg(m, bids, cfg); ok {
				ratio[m.Name()] = out.Cost / lb
			}
		}
		cells[i].ratio = ratio
	})
	for i, c := range cells {
		if c.ratio == nil {
			continue
		}
		x := xs[i/trials]
		for _, n := range names {
			if r, ok := c.ratio[n]; ok {
				acc[n][x] = append(acc[n][x], r)
			}
		}
	}
	var aflWorst float64
	for _, n := range names {
		series := plot.Series{Name: n}
		for _, x := range xs {
			if r := meanOf(acc[n][x]); !math.IsNaN(r) {
				series.Points = append(series.Points, plot.Point{X: float64(x), Y: r})
				if n == "A_FL" {
					aflWorst = math.Max(aflWorst, r)
				}
			}
		}
		fig.Chart.Series = append(fig.Chart.Series, series)
	}
	fig.Notes = append(fig.Notes,
		note("worst observed A_FL ratio %.3f (paper: smallest among all, < 1.3)", aflWorst))
	return fig
}
