package experiments

import (
	"context"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/plot"
	"github.com/fedauction/afl/internal/roundsim"
	"github.com/fedauction/afl/internal/workload"
)

// AblationTiming quantifies what constraint (6d) buys at execution time:
// the same population is auctioned once with the t_max qualification
// enforced and once without it, then both schedules are executed in the
// synchronous round simulator under increasing hardware jitter. The chart
// plots the fraction of failed rounds (fewer than K on-time updates);
// the notes report makespans and straggler rates.
func AblationTiming(opts Options) Figure {
	jitters := []float64{0, 0.1, 0.2, 0.3, 0.4}
	fig := Figure{
		ID:    "timing",
		Title: "Round failures vs hardware jitter, with and without constraint (6d)",
		Chart: plot.Chart{Title: "Ablation: t_max enforcement", XLabel: "timing jitter (σ of log round time)", YLabel: "failed-round fraction"},
	}
	p := workload.NewDefaultParams()
	p.Clients = 200
	p.T = 15
	p.K = 4
	p.Seed = opts.Seed + 31
	if opts.Quick {
		p.Clients = 120
	}
	// Slow the fleet down so t_max actually binds: computation up to 3×
	// the default range.
	p.CompHi = 25
	bids, err := workload.Generate(p)
	if err != nil {
		fig.Notes = append(fig.Notes, note("workload error: %v", err))
		return fig
	}
	cases := []struct {
		name string
		tmax float64
	}{
		{"(6d) enforced (t_max=60)", 60},
		{"(6d) disabled", 0},
	}
	for _, tc := range cases {
		cfg := p.Config()
		cfg.TMax = tc.tmax
		res, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
		if err != nil || !res.Feasible {
			fig.Notes = append(fig.Notes, note("%s: auction infeasible", tc.name))
			continue
		}
		series := plot.Series{Name: tc.name}
		var worstMakespan, worstStragglers float64
		for _, jitter := range jitters {
			sim, err := roundsim.Simulate(res, p.K, roundsim.Options{
				Jitter: jitter,
				TMax:   60, // execution cutoff is physical, always present
				Seed:   opts.Seed + int64(jitter*1000),
			})
			if err != nil {
				continue
			}
			frac := float64(sim.FailedRounds) / float64(len(sim.Rounds))
			series.Points = append(series.Points, plot.Point{X: jitter, Y: frac})
			worstMakespan = sim.Makespan
			worstStragglers = sim.StragglerRate
		}
		fig.Chart.Series = append(fig.Chart.Series, series)
		fig.Notes = append(fig.Notes,
			note("%s: cost %.1f, at max jitter makespan %.1f, straggler rate %.1f%%",
				tc.name, res.Cost, worstMakespan, 100*worstStragglers))
	}
	return fig
}
