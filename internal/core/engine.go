package core

import "context"

// Engine is the reusable incremental A_FL solver. It wraps the shared
// immutable auction context — the columnar bid store, per-bid
// qualification entry points (exploiting the monotonicity of line 6 of
// Algorithm 1 in T̂_g), the qualification order and the feasible sweep
// range [T_0, T] — so a caller that runs the same bid population
// several times (re-pricing studies, what-if sweeps, serving layers) pays
// the precomputation once. RunCtx runs the sweep and RepairCtx re-awards
// coverage after dropouts; Run is the one-shot form.
//
// The Engine retains (and never mutates) the bids passed to NewEngine or
// the BidSet passed to NewEngineSet; callers must not mutate them while
// the Engine is in use. All methods are safe for concurrent use: the
// context is read-only and all mutable solver state lives in pooled
// per-call scratch arenas.
type Engine struct {
	ax *auctionContext
	// arena is non-nil only on engines handed out by AcquireEngineSet or
	// ReacquireEngineSet; it is what Release recycles.
	arena *engineArena
}

// NewEngine validates the configuration and bid population, compiles the
// bids to their columnar form and precomputes the shared auction context.
func NewEngine(bids []Bid, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateBids(bids, cfg.T, cfg.K); err != nil {
		return nil, err
	}
	return &Engine{ax: newAuctionContext(CompileBids(bids), cfg)}, nil
}

// NewEngineSet is NewEngine for a pre-compiled columnar population: the
// compile step is skipped entirely and the engine shares the caller's
// BidSet. It yields bit-identical results to NewEngine on the
// materialized rows (set.Bids()).
func NewEngineSet(set *BidSet, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateBidSet(set, cfg.T, cfg.K); err != nil {
		return nil, err
	}
	return &Engine{ax: newAuctionContext(set, cfg)}, nil
}

// T0 returns T_0 = ⌈1/(1−θ_min)⌉, the smallest candidate number of
// global iterations of the sweep.
func (e *Engine) T0() int { return e.ax.t0 }

// RunCtx executes the sweep honoring ctx and opts, and maps outcomes
// onto the sentinel error surface:
//
//   - ctx canceled mid-sweep: partial work is abandoned and the error
//     matches both ErrCanceled and the context cause under errors.Is;
//   - sweep complete but no T̂_g admits full coverage: ErrInfeasible,
//     with the returned Result still carrying every per-T̂_g WDP outcome;
//   - otherwise nil, with a Result that is bit-identical for every
//     Workers setting.
func (e *Engine) RunCtx(ctx context.Context, opts RunOptions) (Result, error) {
	res, err := e.ax.sweep(ctx, opts)
	if err != nil {
		return res, err
	}
	if !res.Feasible {
		return res, ErrInfeasible
	}
	return res, nil
}

// SolveWDP solves the single winner-determination problem for a fixed
// T̂_g: SolveWDPSet on the precomputed qualified set, with the payment
// rule applied eagerly (a single-WDP caller expects a finished result;
// only the full sweep defers pricing to the selected T̂_g). tg must lie
// in [1, cfg.T]; out-of-range values yield an infeasible result.
func (e *Engine) SolveWDP(tg int) WDPResult {
	if tg < 1 || tg > e.ax.cfg.T {
		return WDPResult{Tg: tg}
	}
	return SolveWDPSet(e.ax.set, e.ax.qualifiedAt(tg), tg, e.ax.cfg)
}

// QualifiedAt returns a copy of the qualified bid set J_{T̂_g} from the
// precomputed entry points. It equals Qualified(bids, tg, cfg) as a set;
// entries are ordered by (first qualifying T̂_g, bid index).
func (e *Engine) QualifiedAt(tg int) []int {
	q := e.ax.qualifiedAt(tg)
	if q == nil {
		return nil
	}
	out := make([]int, len(q))
	copy(out, q)
	return out
}
