package core

import "context"

// Run executes the full A_FL auction (Algorithm 1): it derives the
// feasible range [T_0, T] for the number of global iterations from the
// bids' local accuracies, forms the qualified bid set and solves the
// winner-determination problem for every T̂_g in the range, and returns the
// minimum-social-cost solution with its schedules, payments and dual
// certificate.
//
// Run is NewEngine followed by Engine.RunCtx, so it shares RunCtx's
// options and error surface: a canceled ctx returns an ErrCanceled-wrapping
// error, and an auction in which no T̂_g admits K participants in every
// global iteration returns ErrInfeasible with the Result still carrying
// every per-T̂_g WDP outcome.
func Run(ctx context.Context, bids []Bid, cfg Config, opts RunOptions) (Result, error) {
	eng, err := NewEngine(bids, cfg)
	if err != nil {
		return Result{}, err
	}
	return eng.RunCtx(ctx, opts)
}

// RunWDP is a convenience wrapper that qualifies bids for a fixed T̂_g and
// solves the single winner-determination problem. Experiments that sweep
// T̂_g directly (the paper's Fig. 3 and Fig. 7) use it instead of the full
// enumeration.
func RunWDP(bids []Bid, tg int, cfg Config) (WDPResult, error) {
	if err := cfg.Validate(); err != nil {
		return WDPResult{}, err
	}
	if err := ValidateBids(bids, cfg.T, cfg.K); err != nil {
		return WDPResult{}, err
	}
	return SolveWDP(bids, Qualified(bids, tg, cfg), tg, cfg), nil
}
