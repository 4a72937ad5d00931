package core

// Hooks into the exact-critical pricing internals for the external
// differential tests (package core_test), which need the harness
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
	for _, s := range h.pr.steps {
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
