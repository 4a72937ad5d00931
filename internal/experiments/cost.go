package experiments

import (
	"context"
	"math"

	"github.com/fedauction/afl/internal/baseline"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/plot"
	"github.com/fedauction/afl/internal/workload"
)

// costSweep runs all four algorithms over populations produced by vary and
// returns one series per algorithm.
func costSweep(opts Options, xs []int, vary func(p *workload.Params, x int)) ([]plot.Series, map[string]map[int]float64) {
	names := []string{"A_FL", "Greedy", "A_online", "FCFS"}
	acc := make(map[string]map[int][]float64)
	for _, n := range names {
		acc[n] = make(map[int][]float64)
	}
	for _, x := range xs {
		for trial := 0; trial < opts.trials(); trial++ {
			p := workload.NewDefaultParams()
			if opts.Quick {
				p.Clients = 120
				p.T = 15
				p.K = 4
			}
			vary(&p, x)
			p.Seed = opts.Seed + int64(trial)*104729 + int64(x)*13
			bids, err := workload.Generate(p)
			if err != nil {
				continue
			}
			cfg := p.Config()
			res, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
			if err != nil || !res.Feasible {
				continue
			}
			acc["A_FL"][x] = append(acc["A_FL"][x], res.Cost)
			for _, m := range mechanisms() {
				if out, ok := baseline.RunOverTg(m, bids, cfg); ok {
					acc[m.Name()][x] = append(acc[m.Name()][x], out.Cost)
				}
			}
		}
	}
	var series []plot.Series
	means := make(map[string]map[int]float64)
	for _, n := range names {
		s := plot.Series{Name: n}
		means[n] = make(map[int]float64)
		for _, x := range xs {
			if v := meanOf(acc[n][x]); !math.IsNaN(v) {
				s.Points = append(s.Points, plot.Point{X: float64(x), Y: v})
				means[n][x] = v
			}
		}
		series = append(series, s)
	}
	return series, means
}

// reductionNotes summarizes A_FL's cost reduction against each baseline,
// matching the paper's headline "10%, 40%, 75% versus Greedy, A_online,
// FCFS".
func reductionNotes(means map[string]map[int]float64, xs []int) []string {
	var notes []string
	for _, name := range []string{"Greedy", "A_online", "FCFS"} {
		var reds []float64
		for _, x := range xs {
			afl, ok1 := means["A_FL"][x]
			other, ok2 := means[name][x]
			if ok1 && ok2 && other > 0 {
				reds = append(reds, 1-afl/other)
			}
		}
		if len(reds) > 0 {
			best := 0.0
			for _, r := range reds {
				best = math.Max(best, r)
			}
			notes = append(notes, note("A_FL vs %s: mean reduction %.0f%%, max %.0f%%",
				name, 100*meanOf(reds), 100*best))
		}
	}
	return notes
}

// Fig5 reproduces "Social cost under different number of clients".
func Fig5(opts Options) Figure {
	is := []int{200, 600, 1000, 1400, 1800}
	if opts.Quick {
		is = []int{60, 120, 180}
	}
	series, means := costSweep(opts, is, func(p *workload.Params, x int) { p.Clients = x })
	fig := Figure{
		ID:    "fig5",
		Title: "Social cost vs number of clients I",
		Chart: plot.Chart{Title: "Fig. 5", XLabel: "clients I", YLabel: "social cost", Series: series},
	}
	fig.Notes = append(fig.Notes, reductionNotes(means, is)...)
	// The paper observes A_FL's cost decreasing slightly with I.
	if pts := series[0].Points; len(pts) >= 2 {
		fig.Notes = append(fig.Notes, note("A_FL cost trend over I: %.1f → %.1f", pts[0].Y, pts[len(pts)-1].Y))
	}
	return fig
}

// Fig6 reproduces "Social cost under different number of bids per client".
func Fig6(opts Options) Figure {
	js := []int{2, 4, 6, 8, 10}
	if opts.Quick {
		js = []int{2, 4, 6}
	}
	series, means := costSweep(opts, js, func(p *workload.Params, x int) { p.BidsPerUser = x })
	fig := Figure{
		ID:    "fig6",
		Title: "Social cost vs bids per client J",
		Chart: plot.Chart{Title: "Fig. 6", XLabel: "bids per client J", YLabel: "social cost", Series: series},
	}
	fig.Notes = append(fig.Notes, reductionNotes(means, js)...)
	if pts := series[0].Points; len(pts) >= 2 && pts[len(pts)-1].Y > pts[0].Y {
		fig.Notes = append(fig.Notes, note("cost increases with J as windows shrink (matches paper)"))
	}
	return fig
}

// Fig7 reproduces "Social cost at different fixed T̂_g": every algorithm
// solves the WDP at each T̂_g in [T_0, T], showing the balance point the
// paper reports (a U-shape with an interior minimum). With the §VII-A
// population the shape emerges from qualification scarcity: at small
// T̂_g few windows fit inside [1, T̂_g] and only low-θ (computation-
// heavy) bids qualify, so competition is weak and the cost per covered
// slot high; at large T̂_g there are K·T̂_g slots to fill and the
// (communication-dominated) volume takes over.
func Fig7(opts Options) Figure {
	p := workload.NewDefaultParams()
	p.Seed = opts.Seed + 7
	step := 2
	if opts.Quick {
		p.Clients = 150
		p.T = 20
		p.K = 4
		step = 2
	}
	fig := Figure{
		ID:    "fig7",
		Title: "Social cost at fixed T̂_g",
		Chart: plot.Chart{Title: "Fig. 7", XLabel: "T̂_g", YLabel: "social cost"},
	}
	bids, err := workload.Generate(p)
	if err != nil {
		fig.Notes = append(fig.Notes, note("workload error: %v", err))
		return fig
	}
	cfg := p.Config()
	t0 := core.MinTg(bids)
	// Compile once: every T̂_g solves the same population, and a row
	// SolveWDP would rebuild the columns and the class index per call.
	set := core.CompileBids(bids)
	algos := map[string]func(qual []int, tg int) (float64, bool){
		"A_FL": func(qual []int, tg int) (float64, bool) {
			res := core.SolveWDPSet(set, qual, tg, cfg)
			return res.Cost, res.Feasible
		},
	}
	for _, m := range mechanisms() {
		m := m
		algos[m.Name()] = func(qual []int, tg int) (float64, bool) {
			out := m.Solve(bids, qual, tg, cfg)
			return out.Cost, out.Feasible
		}
	}
	order := []string{"A_FL", "Greedy", "A_online", "FCFS"}
	series := make(map[string]*plot.Series)
	for _, n := range order {
		series[n] = &plot.Series{Name: n}
	}
	bestTg, bestCost := 0, math.Inf(1)
	for tg := t0; tg <= cfg.T; tg += step {
		qual := core.Qualified(bids, tg, cfg)
		for _, n := range order {
			if cost, ok := algos[n](qual, tg); ok {
				series[n].Points = append(series[n].Points, plot.Point{X: float64(tg), Y: cost})
				if n == "A_FL" && cost < bestCost {
					bestCost, bestTg = cost, tg
				}
			}
		}
	}
	for _, n := range order {
		fig.Chart.Series = append(fig.Chart.Series, *series[n])
	}
	fig.Notes = append(fig.Notes,
		note("A_FL balance point at T̂_g=%d, cost %.1f (interior minimum; the paper reports T̂_g≈26 under its window distribution)", bestTg, bestCost))
	if pts := series["A_FL"].Points; len(pts) >= 2 {
		first, last := pts[0], pts[len(pts)-1]
		if bestCost < first.Y-1e-9 && bestCost < last.Y-1e-9 {
			fig.Notes = append(fig.Notes, note("U-shape confirmed: endpoints %.1f / %.1f above minimum %.1f", first.Y, last.Y, bestCost))
		}
	}
	return fig
}
