package core

import (
	"fmt"
	"sort"
	"strings"
)

// Winner records one accepted bid together with its schedule and payment.
type Winner struct {
	// BidIndex is the position of the winning bid in the slice passed to
	// the auction.
	BidIndex int
	// Bid is a copy of the winning bid.
	Bid Bid
	// Slots lists the global iterations (1-based, ascending) the client is
	// scheduled to participate in; len(Slots) == Bid.Rounds.
	Slots []int
	// Payment is the critical-value remuneration p_i.
	Payment float64
	// AvgCost is the bid's average cost ρ/R_il(S) at selection time
	// (diagnostic; the greedy selection key).
	AvgCost float64

	// covered lists the slots that were still available (γ_t < K) at
	// selection time — the set F_il of the paper — and phi is the recorded
	// average cost φ(t,l) shared by those slots. Both feed the dual
	// objective.
	covered []int
	phi     float64
}

// Utility returns the winner's utility p_i − v_ij under its true cost.
func (w Winner) Utility() float64 { return w.Payment - w.Bid.Cost() }

// Dual is the certificate of the dual of LP (8) that A_winner constructs
// (lines 16-23 of Algorithm 2). Its objective value is a lower bound on
// the optimal WDP cost, which makes the pair (primal cost, dual objective)
// a per-instance approximation certificate (Lemma 5). It keeps only the
// certificate's scalars: the dual variables g(t) = η_φ(t)/(H_{T̂_g}·ω)
// and λ_il are summed into Objective as they are computed and stored
// nowhere. Both follow from ω, H_{T̂_g} and the φ each winner recorded
// on the slots it covered.
type Dual struct {
	// Tg is the number of global iterations of the WDP this dual certifies.
	Tg int
	// Omega is ω = max_t ψ_max^t / ψ_min^t (line 18).
	Omega float64
	// HarmonicTg is H_{T̂_g} = Σ_{t=1..T̂_g} 1/t.
	HarmonicTg float64
	// Objective is the dual objective D = Σ_t K·g(t) − Σ λ_il (all q_i = 0),
	// a valid lower bound on the optimal WDP cost.
	Objective float64
	// TightObjective is an instance-tight alternative lower bound: the
	// paper scales the duals by the worst-case 1/(H_{T̂_g}·ω), but on a
	// given instance the largest feasible uniform scale s — the one at
	// which s·η_φ(t) still satisfies every dual constraint with
	// λ = q = 0 — is usually much larger. TightObjective = s·K·Σ_t η_φ(t)
	// is dual-feasible by construction and typically a far stronger bound
	// than Objective.
	TightObjective float64
	// RatioBound is τ = H_{T̂_g}·ω, the proven approximation ratio of
	// A_winner on this instance (Lemma 5).
	RatioBound float64
}

// Bound returns the best (largest) available dual lower bound on the
// optimal WDP cost.
func (d Dual) Bound() float64 {
	if d.TightObjective > d.Objective {
		return d.TightObjective
	}
	return d.Objective
}

// WDPResult is the outcome of A_winner on one winner-determination problem.
type WDPResult struct {
	// Tg is the fixed number of global iterations of this WDP.
	Tg int
	// Feasible reports whether the qualified bids could cover all K·T̂_g
	// participation slots.
	Feasible bool
	// Cost is the social cost Σ ρ_il of the selected schedules.
	Cost float64
	// Winners lists the accepted bids with schedules and payments.
	Winners []Winner
	// Dual is the approximation certificate (valid only when Feasible).
	Dual Dual
	// Rounds is the number of greedy selection rounds A_winner performed.
	Rounds int
	// Skipped marks a candidate an approximate sweep never solved: the
	// entry is a placeholder (Feasible false carries no information) whose
	// bound contribution comes from the capacity certificate instead. The
	// exact sweep never sets it.
	Skipped bool
}

// TotalPayment returns the sum of payments to winners.
func (r WDPResult) TotalPayment() float64 {
	var sum float64
	for _, w := range r.Winners {
		sum += w.Payment
	}
	return sum
}

// Result is the outcome of the full A_FL auction (Algorithm 1).
type Result struct {
	// Feasible reports whether any T̂_g ∈ [T_0, T] admitted a feasible WDP.
	Feasible bool
	// Tg is T_g^*, the chosen number of global iterations.
	Tg int
	// Cost is the minimum social cost across all WDPs.
	Cost float64
	// Winners lists the accepted bids with schedules and payments. The
	// payments honor the configured payment rule: pricing is applied
	// lazily, once, to the selected T̂_g's winners after the sweep picks
	// the argmin, and is bit-identical to pricing every candidate T̂_g
	// eagerly (the pre-lazification behaviour, retained as the
	// seedwdp.RunEager reference and locked in by the differential
	// suite).
	Winners []Winner
	// Dual is the approximation certificate of the winning WDP.
	Dual Dual
	// WDPs records the per-T̂_g outcome (cost, feasibility) of every WDP
	// A_FL enumerated, in increasing T̂_g order; useful for Fig. 7-style
	// analyses. Allocation data (winner sets, schedules, costs, duals) is
	// exact for every entry, but only the selected T̂_g's entry — whose
	// winner slice Winners aliases — carries rule-adjusted payments;
	// non-selected entries keep the Algorithm 3 payments computed
	// in-greedy, whatever cfg.PaymentRule says. Use Engine.SolveWDP for a
	// fully priced non-selected candidate. Under an approximate solver
	// tier, entries the sweep skipped are placeholders with Skipped set.
	WDPs []WDPResult
	// Cert is the quality certificate of an approximate solver tier
	// (RunOptions.Solver != SolverExact): a lower bound on the
	// full-enumeration optimum and the certified ratio of Cost against
	// it. The exact tier leaves it nil — its per-WDP Lemma 5 dual plays
	// that role — so exact results remain bit-identical to historical
	// builds.
	Cert *Certificate
}

// TotalPayment returns the sum of payments to winners.
func (r Result) TotalPayment() float64 {
	var sum float64
	for _, w := range r.Winners {
		sum += w.Payment
	}
	return sum
}

// ThetaMax returns the maximum local accuracy among the winning bids, or 0
// when there are no winners.
func (r Result) ThetaMax() float64 {
	var max float64
	for _, w := range r.Winners {
		if w.Bid.Theta > max {
			max = w.Bid.Theta
		}
	}
	return max
}

// WinnerByClient returns the winning bid of the given client, if any.
func (r Result) WinnerByClient(client int) (Winner, bool) {
	for _, w := range r.Winners {
		if w.Bid.Client == client {
			return w, true
		}
	}
	return Winner{}, false
}

// String renders a compact human-readable report of the auction outcome.
func (r Result) String() string {
	if !r.Feasible {
		return "auction infeasible: no T̂_g admits full coverage"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "T_g*=%d cost=%.2f payments=%.2f winners=%d ratio≤%.3f\n",
		r.Tg, r.Cost, r.TotalPayment(), len(r.Winners), r.Dual.RatioBound)
	ws := make([]Winner, len(r.Winners))
	copy(ws, r.Winners)
	sort.Slice(ws, func(a, b int) bool { return ws[a].BidIndex < ws[b].BidIndex })
	for _, w := range ws {
		fmt.Fprintf(&sb, "  client %d bid %d: price=%.2f pay=%.2f slots=%v\n",
			w.Bid.Client, w.Bid.Index, w.Bid.Price, w.Payment, w.Slots)
	}
	return sb.String()
}
