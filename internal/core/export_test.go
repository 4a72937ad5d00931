package core

import (
	"context"
	"math"
	"time"

	"github.com/fedauction/afl/internal/obs"
)

// Hooks into the exact-critical pricing and tight-dual internals for the
// external differential tests (package core_test), which need the harness
// workloads that live there.

// HeldOut is one winner's held-out pricing record.
type HeldOut struct{ pr *pricer }

// HoldWinner records the held-out run of win in the market (bids,
// qualified, tg, cfg, base), as the pricing stage does before its first
// probe. Release the record when done.
func HoldWinner(bids []Bid, qualified []int, tg int, cfg Config, base []int, win Winner) *HeldOut {
	pr := newPricer(CompileBids(bids), qualified, tg, cfg, base)
	pr.hold(win)
	return &HeldOut{pr: pr}
}

// Wins is the replayed probe answer at price.
func (h *HeldOut) Wins(price float64) bool { return h.pr.wins(price) }

// Thresholds returns, for each recorded step with a held-out selection,
// the price r·key at which the winner's own entry reaches that
// selection's average cost.
func (h *HeldOut) Thresholds() []float64 {
	var out []float64
	for _, s := range h.pr.sc.heldSteps {
		if s.sel.bid >= 0 {
			out = append(out, s.sel.key*float64(s.r))
		}
	}
	return out
}

// Release returns the record's scratch arena.
func (h *HeldOut) Release() { h.pr.release() }

// BisectCritical runs the exact-critical search for win against the probe
// predicate wins and returns the payment and the probe count.
func BisectCritical(win Winner, reserve float64, wins func(price float64) bool) (float64, int) {
	pay, probes, _ := bisectCritical(win, reserve, func(price float64) (bool, error) {
		return wins(price), nil
	})
	return pay, probes
}

// SolveWDPBase is the full solve the replayed probes stand in for: the
// greedy on bids over qualified with base pre-committed, Algorithm 3
// payments only.
func SolveWDPBase(bids []Bid, qualified []int, tg int, cfg Config, base []int) WDPResult {
	return solveOnce(CompileBids(bids), qualified, tg, cfg, base)
}

// ResidualBids is the residual bid population Engine.RepairCtx solves for
// req, with each residual bid's index in the engine's population.
func ResidualBids(e *Engine, req RepairRequest) ([]Bid, []int) {
	return residualBids(e.ax.set, req)
}

// DualVectors derives the dual variables g(t) and λ_il of the A_winner
// solve res (see dualVectors).
func DualVectors(res WDPResult) (g []float64, lambda map[int]float64) {
	return dualVectors(res)
}

// TightDual is one solve's tight dual certificate: the TightObjective the
// solve reported, the objectives of the walk's scale and of the full scan
// over the touched classes, and how many initial-order entries are keyed
// exactly on the walk's final exit bound.
type TightDual struct {
	Tg                   int
	Reported, Walk, Scan float64
	OnBound              int
}

// tightDual reads the walk and the scan of the run that just ended on w;
// the caller fills in Reported.
func (w *wdpState) tightDual() TightDual {
	d := TightDual{Tg: w.tg}
	var sumEta float64
	for t := 0; t < w.tg; t++ {
		sumEta += w.phiMax[t]
	}
	if sumEta <= 0 {
		return d // no η order was built
	}
	objective := func(scale float64) float64 {
		if math.IsInf(scale, 1) {
			return 0
		}
		return scale * float64(w.cfg.K) * sumEta
	}
	walk := w.tightWalk()
	d.Walk, d.Scan = objective(walk), objective(w.tightScan())
	bound := walk * w.sc.etaTop[1] * tightSlack
	for _, e := range w.sc.clsOrder {
		if e.key == bound {
			d.OnBound++
		}
	}
	return d
}

// SweepTightDuals sweeps every candidate T̂_g of (bids, cfg) on one arena,
// as a sweep segment does, and returns the tight dual of each feasible
// WDP, read from the arena right after its solve.
func SweepTightDuals(bids []Bid, cfg Config) ([]TightDual, error) {
	eng, err := NewEngine(bids, cfg)
	if err != nil {
		return nil, err
	}
	ax := eng.ax
	lo, hi := ax.t0, cfg.T
	if lo > hi {
		return nil, nil
	}
	sc := acquireScratch(ax.set, cfg, hi)
	defer releaseScratch(sc)
	out := make([]WDPResult, hi-lo+1)
	var duals []TightDual
	// The solve's event fires right after it, on the arena it just used.
	observe := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.EvWDPSolved && e.OK {
			duals = append(duals, sc.state.tightDual())
		}
	})
	if err := ax.sweepArena(context.Background(), sc, lo, hi, out, nil, observe, time.Now); err != nil {
		return nil, err
	}
	for i := range duals {
		duals[i].Reported = out[duals[i].Tg-lo].Dual.TightObjective
	}
	return duals, nil
}

// BaseTightDual solves one WDP of (bids, qualified, tg, cfg) with base
// coverage pre-committed, as a repair does, and returns its tight dual.
func BaseTightDual(bids []Bid, qualified []int, tg int, cfg Config, base []int) TightDual {
	set := CompileBids(bids)
	sc := acquireScratch(set, cfg, tg)
	defer releaseScratch(sc)
	sc.resetClasses(set, qualified, tg)
	res := solveWDP(set, qualified, tg, cfg, sc, base)
	d := sc.state.tightDual()
	d.Reported = res.Dual.TightObjective
	return d
}

// ClassPosition returns bid i's shape-class row and its position in that
// class's member row.
func ClassPosition(s *BidSet, i int) (class, pos int) {
	ci := s.classes()
	return ci.classOf[i], ci.memberPos[i]
}

// PrimeScratch leaves n scratch arenas sized for solves over set under
// cfg in the pool, as n sweep segments or pricers holding one at once
// would.
func PrimeScratch(set *BidSet, cfg Config, n int) {
	scs := make([]*wdpScratch, n)
	for i := range scs {
		scs[i] = acquireScratch(set, cfg, cfg.T)
	}
	for _, sc := range scs {
		releaseScratch(sc)
	}
}
