package core

import "fmt"

// Solver selects the winner-determination strategy of a full A_FL sweep.
// The zero value is the exact greedy enumeration — every candidate T̂_g
// solved with A_winner, bit-identical to the historical behaviour — so
// existing callers are untouched. The approximate tiers trade candidate
// coverage for speed and return a certified Certificate alongside the
// result, bounding how far the reported cost can be from what the full
// exact enumeration would have returned.
type Solver int

const (
	// SolverExact solves every candidate T̂_g ∈ [T_0, T] with A_winner
	// and selects the argmin — Algorithm 1 exactly. No certificate is
	// attached (Result.Cert stays nil): the exact path carries its
	// per-WDP Lemma 5 dual instead and pays zero certificate overhead.
	SolverExact Solver = iota
	// SolverCoarseFine solves every k-th candidate T̂_g (the coarse
	// pass, stride adapted to the observed cost curvature), then refines
	// around the coarse argmin until its immediate neighbours are solved.
	// The ψ_max column and the shared scratch arena warm-start every
	// solve exactly as in the exact sweep, so every candidate it solves
	// is bit-identical to the exact sweep's solve at that T̂_g.
	SolverCoarseFine
	// SolverLPRound runs the coarse-to-fine pass and then solves the
	// column-generation LP relaxation at the selected T̂_g
	// (RunOptions.LP), rounding the fractional solution to a feasible
	// cover that is adopted when it beats the greedy cover — the one tier
	// that can return a CHEAPER cover than the exact sweep. Without an
	// LP hook installed it degrades to SolverCoarseFine's behaviour
	// (the facade, batch scheduler and market daemon always install one).
	SolverLPRound
)

// String returns the solver's wire name, used by the market WAL and the
// benchmark artifacts. The exact tier's name is "exact"; an empty wire
// string parses back to it (see ParseSolver).
func (s Solver) String() string {
	switch s {
	case SolverExact:
		return "exact"
	case SolverCoarseFine:
		return "coarse-fine"
	case SolverLPRound:
		return "lp-round"
	default:
		return "unknown"
	}
}

// ParseSolver maps a wire name back to its Solver. The empty string
// parses to SolverExact so omitted fields of historical WAL records and
// JSON payloads keep their pre-solver meaning.
func ParseSolver(name string) (Solver, error) {
	switch name {
	case "", "exact":
		return SolverExact, nil
	case "coarse-fine":
		return SolverCoarseFine, nil
	case "lp-round":
		return SolverLPRound, nil
	}
	return SolverExact, fmt.Errorf("core: unknown solver %q", name)
}

// Certificate is the quality certificate of an approximate sweep: a
// lower bound on what the FULL exact enumeration would have returned —
// min over every T̂_g ∈ [T_0, T] of the A_winner cost at that T̂_g, the
// value SolverExact computes — so Result.Cost / LowerBound bounds the
// loss of skipping candidates against the bit-identical exact reference.
//
// The bound takes, for every candidate T̂_g, a valid lower bound on its
// A_winner cost and then the minimum over candidates:
//
//   - a SOLVED feasible candidate contributes its exact cost — the
//     approximate tiers re-use the exact per-T̂_g solver, so the value
//     is the exact sweep's own (an adopted LP-rounded cover contributes
//     its smaller cost, still a valid lower bound on the greedy cover it
//     beat); a solved infeasible candidate contributes nothing, since
//     the exact sweep has no cover there either;
//   - a SKIPPED candidate contributes the capacity bound capLB(T̂_g):
//     every feasible cover must buy at least K·T̂_g participation
//     rounds from the bids qualified at T̂_g, and relaxing the
//     one-bid-per-client and per-slot structure to a fractional knapsack
//     over rounds lower-bounds OPT(T̂_g) ≤ A_winner(T̂_g) without
//     solving anything.
//
// The sweep tightens the bound toward a fixed target ratio by greedily
// solving the skipped candidates whose capacity bound binds the minimum
// (see the tightening loop in sweepApprox); a run that ends up solving
// every candidate certifies Ratio == 1 exactly.
type Certificate struct {
	// Solver identifies the tier that produced the result.
	Solver Solver
	// LowerBound is the certified lower bound on the exact sweep's cost
	// (min over all candidate T̂_g of the A_winner cost).
	LowerBound float64
	// Ratio is Result.Cost / LowerBound — the certified approximation
	// ratio of the reported cover against the exact sweep (+Inf when no
	// positive bound exists).
	Ratio float64
	// Solved counts the candidate T̂_g values actually solved;
	// Candidates is the full enumeration size T − T_0 + 1.
	Solved, Candidates int
	// Converged reports that the LP pricing loop proved LP optimality at
	// the selected T̂_g (SolverLPRound only).
	Converged bool
}

// LPColumn is one fractional schedule of an LP relaxation solution, as
// handed back by an LPCertifier for rounding: bid index, its scheduled
// iterations (ascending) and the fractional activation z ∈ (0, 1].
type LPColumn struct {
	Bid   int
	Slots []int
	Value float64
}

// LPOutcome is what an LPCertifier reports for one WDP: a valid lower
// bound on the optimal WDP cost at that T̂_g plus the fractional columns
// of the final restricted master, for LP-guided rounding.
type LPOutcome struct {
	// Valid is false when the certifier could not produce a bound (the
	// caller then keeps the coarse-to-fine certificate).
	Valid bool
	// Converged reports that pricing proved the bound is the exact LP
	// optimum rather than a Lagrangian relaxation bound.
	Converged bool
	// LowerBound is the certified lower bound on OPT(T̂_g).
	LowerBound float64
	// Columns are the positive-valued columns of the final master
	// solution, for rounding. May be empty.
	Columns []LPColumn
}

// LPCertifier computes an LP lower bound for one winner-determination
// problem over the compiled columnar population. It is a hook rather
// than a direct dependency so the core solver does not import the
// column-generation package (which itself builds on core); the colgen
// package provides the canonical implementation and every public entry
// point (facade, batch scheduler, market daemon) installs it. seed is
// the greedy solution at tg — feasible by construction — which the
// certifier uses as its initial column set.
type LPCertifier interface {
	CertifyWDP(set *BidSet, qualified []int, tg int, cfg Config, seed WDPResult) LPOutcome
}
