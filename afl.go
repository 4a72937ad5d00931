package afl

import (
	"github.com/fedauction/afl/internal/core"
)

// Core auction types, re-exported from the implementation package.
type (
	// Bid is one sealed bid B_ij = {b, θ, [a,d], c} plus the client's
	// per-round timing profile.
	Bid = core.Bid
	// Config carries the auction-wide parameters (T, K, t_max, payment
	// rule).
	Config = core.Config
	// Result is the outcome of the full A_FL auction.
	Result = core.Result
	// WDPResult is the outcome of a single fixed-T̂_g winner-determination
	// problem.
	WDPResult = core.WDPResult
	// Winner is one accepted bid with its schedule and payment.
	Winner = core.Winner
	// Dual is the primal-dual approximation certificate of Lemma 5.
	Dual = core.Dual
	// PaymentRule selects the winner-payment computation.
	PaymentRule = core.PaymentRule
	// LocalIterFunc maps local accuracy θ to local iteration counts
	// (Eq. (2)).
	LocalIterFunc = core.LocalIterFunc
	// Engine is the reusable incremental A_FL solver: it precomputes the
	// shared per-auction context (qualification delta lists, client
	// groupings) once and serves repeated sweeps and fixed-T̂_g solves
	// from it. All methods are safe for concurrent use.
	Engine = core.Engine
	// RunOptions configures Engine.RunCtx (workers, observer, clock); the
	// Run facade builds it from functional options instead.
	RunOptions = core.RunOptions
	// BidSet is the columnar (struct-of-arrays) form of a bid population:
	// one flat slice per bid field plus a client-sibling index, compiled
	// once via CompileBids and shared — immutably — across every solve
	// that reads it. It is the million-bid ingestion handle of the module:
	// RunSet, Instance.Set (RunBatch, Service.Submit) and Market.Submit
	// all accept one, so the cache-linear layout is constructed once
	// instead of per auction. Row-oriented []Bid entry points remain as
	// thin compat wrappers with bit-identical results.
	BidSet = core.BidSet
	// Solver selects the winner-determination strategy of the T̂_g sweep:
	// the exact enumeration (default) or one of the certified approximate
	// tiers. See WithSolver for the tier semantics.
	Solver = core.Solver
	// Certificate is the quality certificate attached to approximate
	// results (Result.Cert): a dual-certified lower bound on the
	// full-enumeration optimum and the ratio of the reported cost against
	// it. Exact results carry a nil Cert.
	Certificate = core.Certificate
)

// Payment rules.
const (
	// RuleCritical is the paper's Algorithm 3 (default).
	RuleCritical = core.RuleCritical
	// RuleExactCritical pays exact Myerson thresholds via bisection.
	RuleExactCritical = core.RuleExactCritical
	// RulePayBid pays winners their claimed price (not truthful).
	RulePayBid = core.RulePayBid
)

// Solver tiers, the quality-vs-speed frontier of the sweep.
const (
	// SolverExact solves every candidate T̂_g — Algorithm 1 exactly.
	SolverExact = core.SolverExact
	// SolverCoarseFine solves a curvature-adapted candidate subset and
	// refines around the argmin; certified by capacity + dual bounds.
	SolverCoarseFine = core.SolverCoarseFine
	// SolverLPRound additionally tightens the certificate with the
	// column-generation LP bound and rounds the LP solution to a cover.
	SolverLPRound = core.SolverLPRound
)

// ParseSolver maps a solver's wire name ("exact", "coarse-fine",
// "lp-round") back to its Solver; the empty string parses to SolverExact
// so omitted fields keep their historical meaning.
func ParseSolver(name string) (Solver, error) { return core.ParseSolver(name) }

// Error sentinels. Every layer of the stack (core solver, networked
// platform, facade) returns errors matching these under errors.Is, so
// callers branch on outcome classes instead of string-matching messages.
var (
	// ErrNoBids is returned when an auction is run without bids.
	ErrNoBids = core.ErrNoBids
	// ErrInfeasible is returned by Run when no T̂_g ∈ [T_0, T] admits K
	// participants in every global iteration; the accompanying Result
	// still carries every per-T̂_g WDP outcome for diagnosis.
	ErrInfeasible = core.ErrInfeasible
	// ErrCanceled is returned by Run when its context is canceled
	// mid-sweep; the error also matches the context cause
	// (context.Canceled or context.DeadlineExceeded) under errors.Is.
	ErrCanceled = core.ErrCanceled
	// ErrUnderCoverage marks outcomes in which some global iteration has
	// fewer than K participants: CheckSolution failures on constraint
	// (6a), and degraded platform sessions (SessionReport.Err).
	ErrUnderCoverage = core.ErrUnderCoverage
)

// RunWDP qualifies bids for a fixed T̂_g and solves that single
// winner-determination problem with A_winner (Algorithm 2).
func RunWDP(bids []Bid, tg int, cfg Config) (WDPResult, error) {
	return core.RunWDP(bids, tg, cfg)
}

// NewEngine validates the bid population and precomputes the shared
// incremental-auction context. Use it when the same population is solved
// more than once (what-if sweeps, re-pricing studies, serving layers);
// Engine.RunCtx returns results bit-identical to Run.
func NewEngine(bids []Bid, cfg Config) (*Engine, error) {
	return core.NewEngine(bids, cfg)
}

// CompileBids builds the columnar form of a bid population. The input
// slice is read once and not retained; the round trip Set.Bids() returns
// the exact rows field-for-field. Compile once and share the handle
// across RunSet, batch Instances and market submissions — a BidSet is
// immutable and safe for concurrent use.
func CompileBids(bids []Bid) *BidSet { return core.CompileBids(bids) }

// NewEngineSet is NewEngine for a pre-compiled population: the columnar
// compile is skipped and the engine shares the caller's BidSet. Results
// are bit-identical to NewEngine on the materialized rows.
func NewEngineSet(set *BidSet, cfg Config) (*Engine, error) {
	return core.NewEngineSet(set, cfg)
}

// Qualified returns the indices of bids qualified for a fixed T̂_g (line 6
// of Algorithm 1).
func Qualified(bids []Bid, tg int, cfg Config) []int {
	return core.Qualified(bids, tg, cfg)
}

// MinTg returns T_0 = ⌈1/(1−θ_min)⌉, the smallest feasible number of
// global iterations for the bid population.
func MinTg(bids []Bid) int { return core.MinTg(bids) }

// CheckSolution verifies an auction outcome against every constraint of
// the paper's ILP (6); use it as defense in depth before paying clients.
func CheckSolution(bids []Bid, res Result, cfg Config) error {
	return core.CheckSolution(bids, res, cfg)
}

// ValidateBids validates a bid population against the auction parameters.
func ValidateBids(bids []Bid, maxT, k int) error { return core.ValidateBids(bids, maxT, k) }

// PaperLocalIters is the simplified T_l(θ) = ⌊10(1−θ)⌋ of the paper's
// evaluation.
func PaperLocalIters(theta float64) float64 { return core.PaperLocalIters(theta) }

// LogLocalIters returns Eq. (2)'s T_l(θ) = η·log(1/θ).
func LogLocalIters(eta float64) LocalIterFunc { return core.LogLocalIters(eta) }
