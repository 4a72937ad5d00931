// Package marketsim is the adversarial market simulation fleet: a load
// driver that runs thousands of seeded strategic sessions against the
// real auction service and asserts, empirically, the paper's central
// claim — that no strategic population beats truthtelling under A_FL —
// while quantifying the leakage of the online payment variants.
//
// A session is a Script: one seeded population, one strategic
// perturbation (bid-shading learners, a collusive ring, a sybil
// splitter, dropout-prone stragglers), a handful of auction rounds. The
// strategic bid vector is solved by the Target — the production service
// stack (in-process marketd.Market or its HTTP daemon) — while the
// truthful counterfactual re-solves the honest vector through
// core.Engine, and the same pair runs through the internal/online
// posted-price variants. The fleet aggregates per-agent realized utility
// against the counterfactual per (strategy, mechanism) cell into a
// Report that is a pure function of the fleet seed (byte-identical
// replay at any worker count), and separately into a Bench load artifact
// (auctions/s, latency percentiles, edge rejections) that is *not*
// byte-stable — timing never is.
package marketsim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/obs"
	"github.com/fedauction/afl/internal/online"
	"github.com/fedauction/afl/internal/stats"
)

// Exogenous posted-price bounds for MechOnline: wide enough to cover
// every per-round cost either generator draws (uniform ≤ 50 per bid,
// wireless ≤ ~40 per round), fixed a priori so the posted prices are
// report-independent — the configuration under which the mechanism is
// exactly truthful.
const (
	onlineL = 1
	onlineU = 60
)

// FleetConfig shapes a fleet run. The zero value is not runnable; use
// DefaultFleetConfig and override.
type FleetConfig struct {
	// Sessions is the number of seeded sessions (scripts) to run.
	Sessions int
	// Seed derives every session seed; equal seeds yield byte-identical
	// Reports at any worker count.
	Seed int64
	// Workers bounds concurrent sessions; <= 0 selects GOMAXPROCS.
	Workers int
	// Clients, T, K, Rounds shape every session (see Script).
	Clients, T, K, Rounds int
	// Target solves the strategic A_FL instances. Nil selects
	// EngineTarget{} (inline solver, no service).
	Target Target
	// Metrics, when set, supplies the server-side rejection counters
	// (afl_rate_limited_total, afl_admission_rejected_total) for the
	// Bench artifact; wire the same Metrics into the market's Observer.
	// Nil falls back to the Target's client-side counters.
	Metrics *obs.Metrics
}

// DefaultFleetConfig returns a runnable configuration: populations large
// enough that A_FL instances are usually feasible, small enough that a
// thousand sessions finish in CI-smoke time.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Sessions: 1000,
		Seed:     1,
		Clients:  16,
		T:        8,
		K:        2,
		Rounds:   3,
	}
}

func (c FleetConfig) validate() error {
	switch {
	case c.Sessions < 1:
		return fmt.Errorf("marketsim: Sessions=%d must be ≥ 1", c.Sessions)
	case c.Clients < 2 || c.Clients > maxScriptClients:
		return fmt.Errorf("marketsim: Clients=%d outside [2,%d]", c.Clients, maxScriptClients)
	case c.T < 2 || c.T > maxScriptT:
		return fmt.Errorf("marketsim: T=%d outside [2,%d]", c.T, maxScriptT)
	case c.K < 1 || c.K > c.Clients:
		return fmt.Errorf("marketsim: K=%d outside [1,Clients]", c.K)
	case c.Rounds < 1 || c.Rounds > maxScriptRounds:
		return fmt.Errorf("marketsim: Rounds=%d outside [1,%d]", c.Rounds, maxScriptRounds)
	}
	return nil
}

// Scripts expands the fleet configuration into its session scripts: a
// deterministic function of the fleet seed, dealing strategies and cost
// models round-robin so every population sees both generators.
func (c FleetConfig) Scripts() []Script {
	rng := stats.NewRNG(c.Seed)
	out := make([]Script, c.Sessions)
	models := []string{CostUniform, CostWireless}
	for i := range out {
		out[i] = Script{
			Seed:      rng.Int63(),
			Strategy:  Strategies[i%len(Strategies)],
			Clients:   c.Clients,
			T:         c.T,
			K:         c.K,
			Rounds:    c.Rounds,
			CostModel: models[(i/len(Strategies))%len(models)],
		}
	}
	return out
}

// mechAccum is one (strategy, mechanism) cell mid-aggregation.
type mechAccum struct {
	stratSum, truthSum float64
	agentRounds        int
	rounds             int
	infeasible         int // strategic-side rounds with no feasible outcome
	truthInfeasible    int // counterfactual rounds with no feasible outcome
}

func (m *mechAccum) add(o *mechAccum) {
	m.stratSum += o.stratSum
	m.truthSum += o.truthSum
	m.agentRounds += o.agentRounds
	m.rounds += o.rounds
	m.infeasible += o.infeasible
	m.truthInfeasible += o.truthInfeasible
}

// sessionResult is one session's contribution, aggregated serially in
// session order after the pool drains so float accumulation is
// worker-count independent.
type sessionResult struct {
	strategy  Strategy
	mech      map[string]*mechAccum
	latencies []time.Duration // strategic A_FL service solves only
	err       error
}

// RunFleet executes the whole fleet and returns the deterministic
// economics Report plus the (non-deterministic) Bench load artifact.
// The error surfaces session failures — service errors, validation
// rejections — not assertion failures; call Report.AssertTruthful for
// those.
func RunFleet(ctx context.Context, cfg FleetConfig) (Report, Bench, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, Bench{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	target := cfg.Target
	if target == nil {
		target = EngineTarget{}
	}
	scripts := cfg.Scripts()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scripts) {
		workers = len(scripts)
	}

	results := make([]sessionResult, len(scripts))
	start := time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = runSession(ctx, scripts[i], target, fmt.Sprintf("sim-%d", i))
			}
		}()
	}
	for i := range scripts {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	// Serial fold in session order: the Report's float sums must not
	// depend on which worker finished first.
	cells := make(map[string]*mechAccum)
	var lats []time.Duration
	var auctions int
	for i, r := range results {
		if r.err != nil {
			return Report{}, Bench{}, fmt.Errorf("marketsim: session %d (%s): %w", i, scripts[i].Strategy, r.err)
		}
		for mech, acc := range r.mech {
			key := string(r.strategy) + "/" + mech
			cell := cells[key]
			if cell == nil {
				cell = &mechAccum{}
				cells[key] = cell
			}
			cell.add(acc)
		}
		lats = append(lats, r.latencies...)
		auctions += len(r.latencies)
	}

	rep := Report{Seed: cfg.Seed, Sessions: cfg.Sessions, Clients: cfg.Clients, T: cfg.T, K: cfg.K, Rounds: cfg.Rounds}
	for _, st := range Strategies {
		for _, mech := range mechanisms {
			cell := cells[string(st)+"/"+mech]
			if cell == nil {
				continue
			}
			pop := PopulationReport{
				Strategy:        string(st),
				Mechanism:       mech,
				Rounds:          cell.rounds,
				AgentRounds:     cell.agentRounds,
				Infeasible:      cell.infeasible,
				TruthInfeasible: cell.truthInfeasible,
			}
			if cell.agentRounds > 0 {
				pop.MeanStrategicUtility = cell.stratSum / float64(cell.agentRounds)
				pop.MeanTruthfulUtility = cell.truthSum / float64(cell.agentRounds)
				pop.Leakage = pop.MeanStrategicUtility - pop.MeanTruthfulUtility
			}
			rep.Populations = append(rep.Populations, pop)
		}
	}

	bench := buildBench(cfg, workers, target, auctions, elapsed, lats)
	return rep, bench, nil
}

// runSession plays one script to completion: Rounds consecutive auction
// rounds, the strategic vector solved by the service target, the
// truthful counterfactual re-solved locally via core.Engine, both
// vectors also pushed through the online posted-price variants. Only the
// shading learner changes its reports between rounds, fed by the A_FL
// outcomes it observes.
func runSession(ctx context.Context, sc Script, target Target, clientKey string) sessionResult {
	res := sessionResult{strategy: sc.Strategy, mech: make(map[string]*mechAccum)}
	for _, m := range mechanisms {
		res.mech[m] = &mechAccum{}
	}
	s, err := newSession(sc)
	if err != nil {
		res.err = err
		return res
	}
	cfg := sc.auctionConfig()
	tvec := s.truthfulBids()

	// The truthful counterfactual is round-invariant (only learners move
	// between rounds, and only on the strategic side), so solve it once
	// per mechanism and replay the per-round utility.
	truthAFL, truthAFLFeasible, err := solveEngine(tvec, core.CompileBids(tvec), cfg, s)
	if err != nil {
		res.err = fmt.Errorf("truthful counterfactual: %w", err)
		return res
	}
	truthOnline := make(map[string]float64)
	truthOnlineOK := make(map[string]bool)
	for _, mech := range []string{MechOnline, MechOnlineAuto} {
		u, ok, err := solveOnline(tvec, sc, mech, s)
		if err != nil {
			res.err = fmt.Errorf("truthful %s: %w", mech, err)
			return res
		}
		truthOnline[mech], truthOnlineOK[mech] = u, ok
	}

	for round := 0; round < sc.Rounds; round++ {
		vec := s.strategicBids()

		// A_FL through the service under test. The strategic vector is
		// compiled into its columnar handle once, here at the submission
		// edge; every in-process solver downstream (batch worker, engine
		// target) binds the same BidSet instead of re-deriving the layout,
		// while the HTTP target keeps serializing the row form.
		inst := batch.Instance{Bids: vec, Set: core.CompileBids(vec), Cfg: cfg}
		t0 := time.Now()
		rec, err := target.Solve(ctx, clientKey, inst)
		if err != nil {
			res.err = fmt.Errorf("round %d (%s): %w", round, s.describe(), err)
			return res
		}
		res.latencies = append(res.latencies, time.Since(t0))
		if rec.Err != "" && !strings.Contains(rec.Err, "infeasible") {
			res.err = fmt.Errorf("round %d (%s): service: %s", round, s.describe(), rec.Err)
			return res
		}
		acc := res.mech[MechAFL]
		acc.rounds++
		acc.agentRounds += len(s.agents)
		var wins []winRec
		if rec.Feasible {
			wins = winsFromRecord(rec)
			acc.stratSum += s.sumAgents(s.utilities(vec, wins))
		} else {
			acc.infeasible++
		}
		if truthAFLFeasible {
			acc.truthSum += truthAFL
		} else {
			acc.truthInfeasible++
		}

		// Online variants, solved locally on the same vectors.
		for _, mech := range []string{MechOnline, MechOnlineAuto} {
			acc := res.mech[mech]
			acc.rounds++
			acc.agentRounds += len(s.agents)
			u, ok, err := solveOnline(vec, sc, mech, s)
			if err != nil {
				res.err = fmt.Errorf("round %d %s: %w", round, mech, err)
				return res
			}
			if ok {
				acc.stratSum += u
			} else {
				acc.infeasible++
			}
			if truthOnlineOK[mech] {
				acc.truthSum += truthOnline[mech]
			} else {
				acc.truthInfeasible++
			}
		}

		s.learnerUpdate(wins)
	}
	return res
}

// solveEngine runs the honest vector through the offline solver and
// returns the session agents' total per-round utility. The vector's
// pre-compiled columnar handle is bound directly; vec is kept only for
// the row-oriented utility accounting.
func solveEngine(vec []core.Bid, set *core.BidSet, cfg core.Config, s *session) (float64, bool, error) {
	eng, err := core.NewEngineSet(set, cfg)
	if err != nil {
		return 0, false, err
	}
	// A Background context never cancels, so the only error is
	// ErrInfeasible, which r.Feasible reports.
	r, _ := eng.RunCtx(context.Background(), core.RunOptions{})
	if !r.Feasible {
		return 0, false, nil
	}
	return s.sumAgents(s.utilities(vec, winsFromResult(r.Winners))), true, nil
}

// solveOnline runs one vector through the posted-price mechanism —
// exogenous bounds for MechOnline, report-derived for MechOnlineAuto —
// and returns the session agents' total utility. The online mechanism
// has no feasibility gate; ok is false only when it accepts nobody.
func solveOnline(vec []core.Bid, sc Script, mech string, s *session) (float64, bool, error) {
	ocfg := online.Config{Tg: sc.T, K: sc.K}
	if mech == MechOnline {
		ocfg.L, ocfg.U = onlineL, onlineU
	}
	r, err := online.Run(vec, online.ArrivalByStart(vec), ocfg)
	if err != nil {
		return 0, false, err
	}
	if len(r.Winners) == 0 {
		return 0, false, nil
	}
	return s.sumAgents(s.utilities(vec, winsFromResult(r.Winners))), true, nil
}

// buildBench assembles the load artifact from the fleet's latency
// samples and the rejection counters (server-side obs metrics when
// wired, client-side target counters otherwise).
func buildBench(cfg FleetConfig, workers int, target Target, auctions int, elapsed time.Duration, lats []time.Duration) Bench {
	b := Bench{
		Sessions:  cfg.Sessions,
		Workers:   workers,
		Auctions:  auctions,
		ElapsedMs: elapsed.Seconds() * 1e3,
	}
	if elapsed > 0 {
		b.AuctionsPerSec = float64(auctions) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.P50Ms = lats[quantileIndex(len(lats), 0.50)].Seconds() * 1e3
		b.P99Ms = lats[quantileIndex(len(lats), 0.99)].Seconds() * 1e3
	}
	if cfg.Metrics != nil {
		reg := cfg.Metrics.Registry()
		b.RateLimited = reg.Counter("afl_rate_limited_total").Value()
		b.AdmissionRejected = reg.Counter("afl_admission_rejected_total").Value()
	} else {
		b.RateLimited, b.AdmissionRejected = target.Rejected()
	}
	return b
}

// quantileIndex maps a quantile to a sorted-sample index (nearest-rank).
func quantileIndex(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
