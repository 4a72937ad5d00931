// Package afl is a Go implementation of the truthful procurement auction
// for federated learning from
//
//	Zhou, Pang, Wang, Lui, Li. "A Truthful Procurement Auction for
//	Incentivizing Heterogeneous Clients in Federated Learning."
//	IEEE ICDCS 2021.
//
// A cloud server needs K mobile clients in every global iteration of a
// federated-learning job. Clients submit sealed bids — claimed cost, local
// accuracy θ, an availability window of global iterations, and a number of
// participation rounds. The A_FL auction jointly chooses the number of
// global iterations T_g (coupled to the winners' accuracies via
// T_g ≥ 1/(1−θ_max)), the winning bids, each winner's schedule, and
// truthful critical-value payments, approximately minimizing social cost.
//
// The root package is the public facade: the auction itself (Run,
// RunWDP, CheckSolution), the paper's §VII-A workload generator
// (GenerateWorkload), the comparison baselines (FCFS, Greedy, AOnline),
// a federated-learning simulator that executes the winning schedule
// (Train, FLClient), and a networked auctioneer/client platform
// (Server, Agent) with in-memory and TCP transports.
//
// # Quick start
//
//	bids, _ := afl.GenerateWorkload(afl.DefaultWorkloadParams())
//	cfg := afl.Config{T: 50, K: 20, TMax: 60}
//	res, err := afl.Run(context.Background(), bids, cfg)
//	// res.Tg, res.Winners (schedules + payments), res.Cost,
//	// res.Dual.RatioBound (per-instance approximation certificate)
//
// Experiment reproduction (the paper's Fig. 3–9) lives in cmd/aflsim and
// the benchmarks in bench_test.go.
//
// # Migrating from RunAuction / RunAuctionConcurrent
//
// Both one-shot entry points are gone; Run replaces them with
// bit-identical results, but reports an infeasible auction as
// ErrInfeasible (with the full Result) instead of a nil error:
//
//	RunAuction(bids, cfg)               → Run(ctx, bids, cfg)
//	RunAuctionConcurrent(bids, cfg, n)  → Run(ctx, bids, cfg, WithWorkers(n))  // n ≤ 0: WithWorkers(-1)
//
// Further options: WithObserver streams structured phase events (see
// Observer, Trace, Metrics) at zero cost when omitted, WithNow injects a
// deterministic clock for golden-testing traces, and WithPaymentRule
// overrides cfg.PaymentRule for one call. Engines take the same settings
// through Engine.RunCtx and RunOptions.
//
// # Migrating from []Bid to BidSet
//
// Every []Bid entry point now has a columnar twin that accepts a BidSet,
// the struct-of-arrays form built once by CompileBids. The row-oriented
// paths remain fully supported — they compile on entry and return
// bit-identical results — but a population solved more than once should
// be compiled once and the handle shared:
//
//	set := afl.CompileBids(bids)
//	RunSet(ctx, set, cfg, opts...)       // Run for a compiled population
//	Instance{Set: set, Cfg: cfg}         // RunBatch / Service.Submit
//	NewEngineSet(set, cfg)               // NewEngine without the compile
//
// A BidSet is immutable after CompileBids and safe for concurrent use:
// one compiled million-bid population can back a whole batch, whose
// workers then warm-start across consecutive instances sharing the
// handle (the engine rebind skips validation and the entire
// qualification rebuild). The round trip is exact — set.Bids() returns
// the compiled rows field-for-field — so row-oriented consumers (the
// market's log encoding, diagnostics) interoperate losslessly.
//
// # Approximate solvers
//
// WithSolver selects the sweep's enumeration strategy per call. The
// default, SolverExact, solves every candidate T̂_g — bit-identical to
// the historical behaviour, Result.Cert nil. SolverCoarseFine solves a
// curvature-adaptive subset (WithStride sets the coarse granularity;
// stride 1 degenerates to the exact sweep bit-for-bit) and
// SolverLPRound adds an LP-rounding pass that can return a cover
// cheaper than the greedy sweep. Both approximate tiers attach a
// Certificate whose Ratio certifies how far the reported cost can be
// from what the full exact enumeration would have returned; payments
// are always the exact critical values at the selected T̂_g. The same
// knob rides through RunSet, RunBatch, Service.Submit and the market
// daemon, whose WAL persists the solver name and certified ratio.
//
// # Observability
//
// The stack emits structured phase events — auction started, each T̂_g's
// WDP solved, winners accepted, payments computed, repairs, retries,
// stragglers, dropouts, injected faults — through the Observer interface.
// Attach one with WithObserver (auctions), ServerConfig.Observer
// (sessions) or chaos Scenario.Observer (fault-injection runs). Trace
// records events verbatim; NewMetrics folds them into counters, gauges
// and latency histograms with deterministic text exposition
// (Registry.WriteText / ServeHTTP). When no observer is attached the
// instrumentation vanishes: nil checks guard every hook, so the hot path
// performs no timing calls and no extra allocations.
package afl
