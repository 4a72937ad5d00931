package experiments

import (
	"context"
	"math"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/plot"
	"github.com/fedauction/afl/internal/workload"
)

// AblationDiurnal studies availability skew: real phones are idle and
// charging in the evening, so windows cluster late in the horizon instead
// of uniformly (the §VII-A model). The sweep increases the diurnal peak
// and reports A_FL's social cost and the scarcity profile — how expensive
// the under-supplied early iterations become relative to the congested
// late ones.
func AblationDiurnal(opts Options) Figure {
	peaks := []float64{0, 2, 4, 8}
	fig := Figure{
		ID:    "diurnal",
		Title: "Availability skew: social cost vs diurnal peak strength",
		Chart: plot.Chart{Title: "Ablation: diurnal availability", XLabel: "diurnal peak strength", YLabel: "social cost"},
	}
	cost := plot.Series{Name: "A_FL cost"}
	winners := plot.Series{Name: "winners ×10"}
	for _, peak := range peaks {
		var costs, wins, early, late []float64
		for trial := 0; trial < opts.trials(); trial++ {
			p := workload.NewDefaultParams()
			p.Clients = 400
			p.T = 20
			p.K = 5
			p.DiurnalPeak = peak
			p.Seed = opts.Seed + int64(trial)*53 + int64(peak*100)
			if opts.Quick {
				p.Clients = 200
			}
			bids, err := workload.Generate(p)
			if err != nil {
				continue
			}
			cfg := p.Config()
			res, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
			if err != nil || !res.Feasible {
				continue
			}
			costs = append(costs, res.Cost)
			wins = append(wins, float64(len(res.Winners)))
			// Scarcity profile: how many winners serve the first vs the
			// last quarter of the chosen horizon.
			q := res.Tg / 4
			if q < 1 {
				q = 1
			}
			var e, l float64
			for _, w := range res.Winners {
				for _, t := range w.Slots {
					if t <= q {
						e++
					}
					if t > res.Tg-q {
						l++
					}
				}
			}
			early = append(early, e)
			late = append(late, l)
		}
		if c := meanOf(costs); !math.IsNaN(c) {
			cost.Points = append(cost.Points, plot.Point{X: peak, Y: c})
			winners.Points = append(winners.Points, plot.Point{X: peak, Y: 10 * meanOf(wins)})
			fig.Notes = append(fig.Notes,
				note("peak %.0f: cost %.1f, winners %.0f, early-quarter participations %.1f vs late-quarter %.1f",
					peak, c, meanOf(wins), meanOf(early), meanOf(late)))
		}
	}
	fig.Chart.Series = []plot.Series{cost, winners}
	return fig
}
