package experiments

import (
	"context"
	"sort"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/plot"
	"github.com/fedauction/afl/internal/workload"
)

// Fig9 reproduces "Payment versus claimed cost of winning bid": on a
// default instance, every winner's claimed cost and critical-value
// payment are plotted side by side (winners sorted by claimed cost).
// Individual rationality holds iff the payment series dominates the cost
// series pointwise.
func Fig9(opts Options) Figure {
	p := workload.NewDefaultParams()
	p.Seed = opts.Seed + 9
	if opts.Quick {
		p.Clients = 150
		p.T = 15
		p.K = 4
	}
	fig := Figure{
		ID:    "fig9",
		Title: "Payment vs claimed cost per winning bid",
		Chart: plot.Chart{Title: "Fig. 9", XLabel: "winner (sorted by claimed cost)", YLabel: "value"},
	}
	bids, err := workload.Generate(p)
	if err != nil {
		fig.Notes = append(fig.Notes, note("workload error: %v", err))
		return fig
	}
	cfg := p.Config()
	res, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
	if err != nil || !res.Feasible {
		fig.Notes = append(fig.Notes, note("auction infeasible"))
		return fig
	}
	winners := make([]core.Winner, len(res.Winners))
	copy(winners, res.Winners)
	sort.Slice(winners, func(a, b int) bool { return winners[a].Bid.Price < winners[b].Bid.Price })
	cost := plot.Series{Name: "claimed cost"}
	pay := plot.Series{Name: "payment"}
	violations := 0
	for i, w := range winners {
		cost.Points = append(cost.Points, plot.Point{X: float64(i + 1), Y: w.Bid.Price})
		pay.Points = append(pay.Points, plot.Point{X: float64(i + 1), Y: w.Payment})
		if w.Payment < w.Bid.Price-1e-9 {
			violations++
		}
	}
	fig.Chart.Series = []plot.Series{pay, cost}
	fig.Notes = append(fig.Notes,
		note("%d winners, %d individual-rationality violations (paper: none)", len(winners), violations))
	return fig
}
