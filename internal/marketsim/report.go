package marketsim

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// PopulationReport is one (strategy, mechanism) cell of the fleet's
// economics: mean per-agent-round realized utility under the strategic
// reports vs the truthful counterfactual, and their difference — the
// strategy's leakage. Negative leakage means the strategy loses money
// relative to truthtelling.
type PopulationReport struct {
	Strategy  string `json:"strategy"`
	Mechanism string `json:"mechanism"`
	// Rounds is the number of auction rounds aggregated; AgentRounds the
	// number of (strategic agent, round) utility samples behind the means.
	Rounds      int `json:"rounds"`
	AgentRounds int `json:"agent_rounds"`
	// Infeasible counts strategic-side rounds with no feasible outcome;
	// TruthInfeasible the counterfactual's. Both contribute zero utility.
	Infeasible      int `json:"infeasible"`
	TruthInfeasible int `json:"truth_infeasible"`
	// MeanStrategicUtility and MeanTruthfulUtility are per agent-round.
	MeanStrategicUtility float64 `json:"mean_strategic_utility"`
	MeanTruthfulUtility  float64 `json:"mean_truthful_utility"`
	// Leakage = strategic − truthful.
	Leakage float64 `json:"leakage"`
}

// Report is the fleet's deterministic artifact: a pure function of the
// fleet seed and shape — no timestamps, no latencies, no worker-count
// dependence — so `same seed ⇒ byte-identical report` is a testable
// property, and any byte diff between two runs is a real change in the
// mechanism or the harness.
type Report struct {
	Seed     int64 `json:"seed"`
	Sessions int   `json:"sessions"`
	Clients  int   `json:"clients"`
	T        int   `json:"t"`
	K        int   `json:"k"`
	Rounds   int   `json:"rounds"`
	// Populations is ordered strategy-major, mechanism-minor (the
	// Strategies and mechanism declaration orders).
	Populations []PopulationReport `json:"populations"`
}

// truthfulnessEps absorbs float accumulation noise in the assertion: a
// true violation is a per-agent-round utility gap, measured in cost
// units (≥ ~1), not in ulps.
const truthfulnessEps = 1e-9

// nearTruthfulTol is the relative leakage tolerance for strategic
// populations: 2% of the cell's mean truthful utility. It is not a
// fudge factor — it is the documented near-truthfulness envelope of the
// implementation (EXPERIMENTS.md "Deviations"): misreports perturb the
// chosen T̂_g and the greedy's selection order, multi-minded menus (the
// sybil counterfactual) are manipulable on ≈1% of probes even under the
// exact-critical rule, and essential winners collect per-bid reserve
// payments that an identity split can multiply (see
// TestSybilEssentialReserveEdge and DESIGN.md "Strategic robustness").
// Across fleet-scale runs (the ≥1000-session default) observed strategic
// leakage stays within ~1.1% of truthful utility; gains beyond 2% mean
// a strategy found something genuinely new.
const nearTruthfulTol = 0.02

// AssertTruthful checks the fleet's central claim: under A_FL, no
// strategic population's mean utility exceeds its truthful
// counterfactual beyond the implementation's documented
// near-truthfulness envelope (nearTruthfulTol). The online variants are
// deliberately exempt — their leakage is the measurement, not an
// invariant. The truthful control population is held to exact equality
// (its strategic and counterfactual vectors are the same bids), pinning
// the harness itself. The tolerance is calibrated for fleet-scale means:
// small fleets (≲1000 sessions) can legitimately trip it when a rare
// essential-reserve sybil jackpot lands in a thin sample.
func (r Report) AssertTruthful() error {
	for _, p := range r.Populations {
		if p.Mechanism != MechAFL {
			continue
		}
		if p.Strategy == string(StratTruthful) {
			if p.Leakage != 0 {
				return fmt.Errorf("marketsim: truthful control has non-zero leakage %g — harness bug", p.Leakage)
			}
			continue
		}
		tol := nearTruthfulTol * p.MeanTruthfulUtility
		if tol < truthfulnessEps {
			tol = truthfulnessEps
		}
		if p.Leakage > tol {
			return fmt.Errorf("marketsim: population %q beats truthtelling under %s beyond the near-truthful envelope: strategic %g > truthful %g (leakage %g > tolerance %g over %d agent-rounds; see DESIGN.md \"Strategic robustness\")",
				p.Strategy, p.Mechanism, p.MeanStrategicUtility, p.MeanTruthfulUtility, p.Leakage, tol, p.AgentRounds)
		}
	}
	return nil
}

// Population returns the named cell, or false.
func (r Report) Population(strategy, mechanism string) (PopulationReport, bool) {
	for _, p := range r.Populations {
		if p.Strategy == strategy && p.Mechanism == mechanism {
			return p, true
		}
	}
	return PopulationReport{}, false
}

// Encode renders the report as deterministic indented JSON with a
// trailing newline.
func (r Report) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Bench is the BENCH_market.json load artifact: throughput and latency
// of the strategic A_FL solves through the service target, plus the
// rate-limit and admission rejections the edge issued while absorbing
// the fleet. Unlike Report it contains wall-clock measurements and is
// not byte-stable across runs.
type Bench struct {
	Sessions int `json:"sessions"`
	Workers  int `json:"workers"`
	// Auctions counts strategic A_FL solves through the target.
	Auctions       int     `json:"auctions"`
	ElapsedMs      float64 `json:"elapsed_ms"`
	AuctionsPerSec float64 `json:"auctions_per_sec"`
	// P50Ms and P99Ms are exact nearest-rank percentiles over every
	// solve's submit-to-commit latency.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// RateLimited and AdmissionRejected count edge rejections (HTTP 429
	// and 503), from the server-side obs registry when wired, otherwise
	// from the target's client-side counters.
	RateLimited       int64 `json:"rate_limited"`
	AdmissionRejected int64 `json:"admission_rejected"`
}

// Encode renders the artifact as indented JSON with a trailing newline.
func (b Bench) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
