package afl

import (
	"context"
	"time"

	"github.com/fedauction/afl/internal/colgen"
	"github.com/fedauction/afl/internal/core"
)

// Option configures one Run call. Options are applied in order; the zero
// option set runs the sweep sequentially, uninstrumented, with the
// payment rule taken from cfg.
type Option func(*runConfig)

type runConfig struct {
	workers   int
	queue     int
	obsv      Observer
	now       func() time.Time
	rule      PaymentRule
	ruleSet   bool
	solver    Solver
	solverSet bool

	// Market-only knobs (see OpenMarket).
	walDir          string
	ratePerSec      float64
	rateBurst       int
	maxPending      int
	checkpointEvery int
	segmentBytes    int64
	retainOutcomes  int
}

// WithWorkers fans the independent per-T̂_g winner-determination solves
// out over n workers: 0 or 1 runs inline on the calling goroutine, n > 1
// uses n workers (clamped to the number of candidate T̂_g values), and
// n < 0 selects GOMAXPROCS. Every setting returns bit-identical results;
// only wall-clock time changes.
func WithWorkers(n int) Option {
	return func(rc *runConfig) { rc.workers = n }
}

// WithQueue bounds the submission queue of a NewService batch service:
// Submit blocks once n instances are waiting, which is the service's
// backpressure. n <= 0 (or omitting the option) selects twice the worker
// count. The option has no effect on Run or RunBatch, whose inputs are
// already fully materialized.
func WithQueue(n int) Option {
	return func(rc *runConfig) { rc.queue = n }
}

// WithObserver streams structured phase events (auction started, per-T̂_g
// WDP solved, winner accepted, payment computed, auction done) to o
// during the run. A nil o — or omitting the option — disables
// instrumentation entirely: the hot path then performs no timing calls
// and no extra allocations. With WithWorkers(n > 1) the observer must be
// safe for concurrent use, and per-T̂_g events arrive in completion
// order, not T̂_g order.
func WithObserver(o Observer) Option {
	return func(rc *runConfig) { rc.obsv = o }
}

// WithNow injects the timestamp source used for phase latencies (nil or
// omitted selects time.Now). It has no effect without WithObserver; use
// it to golden-test traces with a deterministic clock.
func WithNow(now func() time.Time) Option {
	return func(rc *runConfig) { rc.now = now }
}

// WithPaymentRule overrides the payment rule without touching the
// caller's Config, uniformly across the entry points: Run and RunSet
// override cfg for the one call, RunBatch and NewService override every
// instance's Cfg at intake, and OpenMarket overrides each submission's
// Cfg before its bid record is logged (so a durable market's recovery
// re-solves under the same rule).
func WithPaymentRule(rule PaymentRule) Option {
	return func(rc *runConfig) { rc.rule = rule; rc.ruleSet = true }
}

// WithSolver selects the winner-determination strategy of the T̂_g
// sweep, uniformly across the entry points (Run and RunSet for the one
// call, RunBatch and NewService per intake, OpenMarket per submission —
// persisted in each bid's WAL record so a durable market's recovery
// re-solves under the same tier):
//
//   - SolverExact (the default) solves every candidate — Algorithm 1
//     exactly, bit-identical to historical builds, Result.Cert nil;
//   - SolverCoarseFine solves a curvature-adapted subset of candidates
//     and refines around the argmin;
//   - SolverLPRound additionally tightens the selected T̂_g with the
//     column-generation LP bound and adopts the rounded LP cover when it
//     beats the greedy one.
//
// Approximate tiers attach a Certificate (Result.Cert) bounding
// Cost/LowerBound against the full-enumeration optimum, so callers dial
// speed against certified quality instead of trusting a heuristic.
func WithSolver(s Solver) Option {
	return func(rc *runConfig) { rc.solver = s; rc.solverSet = true }
}

// Run executes the full A_FL auction (Algorithm 1 of the paper) honoring
// ctx and the functional options: it enumerates the feasible numbers of
// global iterations, solves a winner-determination problem for each, and
// returns the minimum-cost solution with schedules, payments and the dual
// certificate bounding its distance from optimal. Results are
// bit-identical for every worker count.
//
// Outcomes map onto the package's sentinel errors:
//
//   - invalid cfg or bids: a validation error (ErrNoBids when bids is
//     empty), with a zero Result;
//   - ctx canceled or expired mid-sweep: partial work is abandoned and
//     the error matches both ErrCanceled and the context cause
//     (context.Canceled / context.DeadlineExceeded) under errors.Is;
//   - sweep complete but no T̂_g admits K participants everywhere:
//     ErrInfeasible, with the Result still carrying every per-T̂_g WDP
//     outcome for diagnosis;
//   - otherwise nil, with the minimum-social-cost solution.
func Run(ctx context.Context, bids []Bid, cfg Config, opts ...Option) (Result, error) {
	rc := applyOptions(opts)
	if rc.ruleSet {
		cfg.PaymentRule = rc.rule
	}
	return core.Run(ctx, bids, cfg, rc.runOptions())
}

// RunSet is Run over a pre-compiled columnar population: the BidSet built
// once by CompileBids is bound directly (no per-call compile, no copy)
// and the result is bit-identical to Run on the materialized rows
// (set.Bids()) under every option combination. It is the single-auction
// entry of the columnar-ingestion facade; for many auctions over one
// population, prefer RunBatch or a Service with Instance.Set, whose
// workers additionally warm-start across instances sharing the handle.
func RunSet(ctx context.Context, set *BidSet, cfg Config, opts ...Option) (Result, error) {
	rc := applyOptions(opts)
	if rc.ruleSet {
		cfg.PaymentRule = rc.rule
	}
	eng, err := core.NewEngineSet(set, cfg)
	if err != nil {
		return Result{}, err
	}
	return eng.RunCtx(ctx, rc.runOptions())
}

// runOptions maps the facade's option state onto the core sweep options,
// installing the column-generation certifier whenever an approximate
// tier could use it (the hook is only consulted by SolverLPRound).
func (rc *runConfig) runOptions() core.RunOptions {
	o := core.RunOptions{
		Workers:  rc.workers,
		Observer: rc.obsv,
		Now:      rc.now,
		Solver:   rc.solver,
	}
	if rc.solver == SolverLPRound {
		o.LP = colgen.Certifier{}
	}
	return o
}

// applyOptions folds the shared option set into one runConfig; every
// facade entry point (Run, RunSet, RunBatch, NewService, OpenMarket)
// resolves its options through this single site, so an option means the
// same thing everywhere it applies.
func applyOptions(opts []Option) runConfig {
	var rc runConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&rc)
		}
	}
	return rc
}
