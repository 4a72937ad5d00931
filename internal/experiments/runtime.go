package experiments

import (
	"context"
	"errors"
	"time"

	"github.com/fedauction/afl/internal/baseline"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/plot"
	"github.com/fedauction/afl/internal/workload"
)

// Fig8 reproduces "Running time": wall-clock time of A_FL and A_online
// across client counts, J = 10 as in the paper's largest input
// (I = 9000, J = 10). Absolute numbers depend on the host; the figure
// checks the ordering (A_FL faster) and the mild growth in I.
func Fig8(opts Options) Figure {
	is := []int{1000, 3000, 5000, 7000, 9000}
	reps := 3
	if opts.Quick {
		is = []int{200, 600, 1000}
		reps = 1
	}
	fig := Figure{
		ID:    "fig8",
		Title: "Running time vs number of clients (J=10)",
		Chart: plot.Chart{Title: "Fig. 8", XLabel: "clients I", YLabel: "runtime (ms)"},
	}
	afl := plot.Series{Name: "A_FL"}
	online := plot.Series{Name: "A_online"}
	var lastAFL, lastOnline float64
	// Generating the large populations (up to I=9000, J=10) dominates
	// the untimed part of this figure, so it fans out over the worker
	// pool. The timed reps below stay strictly serial: concurrent solves
	// would contend for cores and corrupt the wall-clock measurements
	// this figure exists to report.
	type input struct {
		bids []core.Bid
		cfg  core.Config
	}
	gen := make([]input, len(is))
	forEach(len(is), opts.workers(), func(i int) {
		p := workload.NewDefaultParams()
		p.Clients = is[i]
		p.BidsPerUser = 10
		p.Seed = opts.Seed + int64(is[i])
		if opts.Quick {
			p.T = 20
			p.K = 8
		}
		bids, err := workload.Generate(p)
		if err != nil {
			return
		}
		gen[i] = input{bids: bids, cfg: p.Config()}
	})
	for i, clientCount := range is {
		bids, cfg := gen[i].bids, gen[i].cfg
		if bids == nil {
			continue
		}
		var aflMS, onlineMS float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := core.Run(context.Background(), bids, cfg, core.RunOptions{}); err != nil && !errors.Is(err, core.ErrInfeasible) {
				continue
			}
			aflMS += float64(time.Since(t0).Microseconds()) / 1000
			t1 := time.Now()
			baseline.RunOverTg(baseline.AOnline{}, bids, cfg)
			onlineMS += float64(time.Since(t1).Microseconds()) / 1000
		}
		lastAFL = aflMS / float64(reps)
		lastOnline = onlineMS / float64(reps)
		afl.Points = append(afl.Points, plot.Point{X: float64(clientCount), Y: lastAFL})
		online.Points = append(online.Points, plot.Point{X: float64(clientCount), Y: lastOnline})
	}
	fig.Chart.Series = []plot.Series{afl, online}
	fig.Notes = append(fig.Notes,
		note("largest instance: A_FL %.1f ms vs A_online %.1f ms (paper: A_FL < 60 s in MATLAB and faster than A_online)", lastAFL, lastOnline))
	return fig
}
