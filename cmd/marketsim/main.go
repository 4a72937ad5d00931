// Command marketsim runs the adversarial market simulation fleet: seeded
// sessions of strategic bidder populations (bid-shading learners,
// collusive rings, sybil splitters, dropout-prone stragglers) hammering
// the auction service concurrently, each session's realized utility
// compared against its truthful counterfactual re-solved on the honest
// bid vector.
//
// The run produces two artifacts: a deterministic economics report (a
// pure function of -seed; byte-identical replay at any -workers) and a
// BENCH_market.json load artifact (auctions/s, p50/p99 submit-to-commit
// latency, edge rejections). The process exits 1 when any strategic
// population beats truthtelling under A_FL — the fleet is an executable
// truthfulness assertion, not just a load generator.
//
// Usage:
//
//	marketsim [-sessions 1000] [-seed 1] [-workers 0]
//	          [-clients 16] [-t 8] [-k 2] [-rounds 3]
//	          [-target market|engine|http] [-addr http://host:port]
//	          [-rate 0] [-burst 0] [-max-pending 0]
//	          [-durability] [-quick]
//	          [-out BENCH_market.json] [-report path]
//
// -durability adds the fast-path tables to the bench artifact:
// sustained fully durable ingest (every commit fsynced before its ack)
// with and without group commit, and cold-restart recovery time against history length with
// and without checkpoints. -quick shrinks it for CI smoke;
// -sessions 0 skips the fleet and emits just those tables.
//
// Targets:
//
//	market  in-process marketd.Market — the real service stack (batch
//	        scheduler, pooled engines, commit protocol) minus HTTP (default)
//	engine  inline core.Engine solves, no service in the loop
//	http    the daemon's real HTTP API; -addr selects an external daemon,
//	        empty -addr self-hosts one on a loopback listener so the edge
//	        (rate limiting, admission control) is exercised in-process
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"github.com/fedauction/afl/internal/marketd"
	"github.com/fedauction/afl/internal/marketsim"
	"github.com/fedauction/afl/internal/obs"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("marketsim", flag.ExitOnError)
	cfg := marketsim.DefaultFleetConfig()
	fs.IntVar(&cfg.Sessions, "sessions", cfg.Sessions, "number of seeded strategic sessions")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "fleet seed; equal seeds replay byte-identically")
	fs.IntVar(&cfg.Workers, "workers", 0, "concurrent sessions (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.Clients, "clients", cfg.Clients, "clients per session")
	fs.IntVar(&cfg.T, "t", cfg.T, "global iterations per auction")
	fs.IntVar(&cfg.K, "k", cfg.K, "required clients per iteration")
	fs.IntVar(&cfg.Rounds, "rounds", cfg.Rounds, "auction rounds per session")
	target := fs.String("target", "market", "market | engine | http")
	addr := fs.String("addr", "", "daemon base URL for -target http (empty self-hosts)")
	rate := fs.Float64("rate", 0, "per-client rate limit for the hosted market (0 = off)")
	burst := fs.Int("burst", 0, "rate-limit burst for the hosted market")
	maxPending := fs.Int("max-pending", 0, "admission bound for the hosted market (0 = off)")
	out := fs.String("out", "BENCH_market.json", "load artifact path (- for stdout)")
	reportPath := fs.String("report", "", "economics report path (default stdout)")
	durability := fs.Bool("durability", false, "run the durability fast-path bench (ingest + recovery tables)")
	quick := fs.Bool("quick", false, "shrink the durability bench for CI smoke (small histories, fewer auctions)")
	fs.Parse(args)

	ctx := context.Background()

	var dur marketsim.DurabilityBench
	if *durability {
		var err error
		dur, err = marketsim.RunDurabilityBench(ctx, marketsim.DurabilityOptions{Quick: *quick})
		if err != nil {
			return fail("durability bench: %v", err)
		}
		for _, row := range dur.Ingest {
			fmt.Fprintf(os.Stderr, "marketsim: ingest %-12s %7.0f auctions/s (%d submitters, %d fsyncs, %.1f records/fsync, %.0f allocs/auction)\n",
				row.Mode, row.AuctionsPerSec, row.Submitters, row.Fsyncs, row.RecordsPerFsync, row.AllocsPerAuction)
		}
		for _, row := range dur.Recovery {
			fmt.Fprintf(os.Stderr, "marketsim: recovery history=%-8d ckpt=%-5v open %8.1fms (tail %d records, %d segments, %d bytes)\n",
				row.History, row.Checkpoints, row.OpenMs, row.TailReplayed, row.Segments, row.WALBytes)
		}
	}

	if cfg.Sessions == 0 {
		// -sessions 0 skips the fleet: emit just the durability tables.
		benchBytes, err := marketsim.Bench{Ingest: dur.Ingest, Recovery: dur.Recovery}.Encode()
		if err != nil {
			return fail("encode bench: %v", err)
		}
		if err := emit(*out, benchBytes); err != nil {
			return fail("write bench: %v", err)
		}
		return 0
	}

	metrics := obs.NewMetrics(nil)
	mcfg := marketd.Config{
		Workers:    cfg.Workers,
		RatePerSec: *rate,
		Burst:      *burst,
		MaxPending: *maxPending,
		Observer:   metrics,
	}

	switch *target {
	case "engine":
		cfg.Target = marketsim.EngineTarget{}
	case "market":
		m, err := marketd.Open(ctx, mcfg)
		if err != nil {
			return fail("open market: %v", err)
		}
		defer m.Close()
		cfg.Target = marketsim.MarketTarget{M: m}
		cfg.Metrics = metrics
	case "http":
		base := *addr
		if base == "" {
			m, err := marketd.Open(ctx, mcfg)
			if err != nil {
				return fail("open market: %v", err)
			}
			defer m.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail("listen: %v", err)
			}
			srv := &http.Server{Handler: marketd.Handler(m)}
			go srv.Serve(ln)
			defer srv.Close()
			base = "http://" + ln.Addr().String()
			cfg.Metrics = metrics
		}
		cfg.Target = &marketsim.HTTPTarget{BaseURL: base}
	default:
		return fail("unknown -target %q (want market, engine or http)", *target)
	}

	rep, bench, err := marketsim.RunFleet(ctx, cfg)
	if err != nil {
		return fail("fleet: %v", err)
	}

	repBytes, err := rep.Encode()
	if err != nil {
		return fail("encode report: %v", err)
	}
	if err := emit(*reportPath, repBytes); err != nil {
		return fail("write report: %v", err)
	}
	bench.Ingest = dur.Ingest
	bench.Recovery = dur.Recovery
	benchBytes, err := bench.Encode()
	if err != nil {
		return fail("encode bench: %v", err)
	}
	if err := emit(*out, benchBytes); err != nil {
		return fail("write bench: %v", err)
	}

	fmt.Fprintf(os.Stderr, "marketsim: %d sessions, %d auctions, %.0f auctions/s, p50 %.3fms p99 %.3fms, 429s %d, 503s %d\n",
		bench.Sessions, bench.Auctions, bench.AuctionsPerSec, bench.P50Ms, bench.P99Ms, bench.RateLimited, bench.AdmissionRejected)
	for _, p := range rep.Populations {
		fmt.Fprintf(os.Stderr, "marketsim: %-10s %-12s leakage %+.4f (strategic %+.4f vs truthful %+.4f over %d agent-rounds)\n",
			p.Strategy, p.Mechanism, p.Leakage, p.MeanStrategicUtility, p.MeanTruthfulUtility, p.AgentRounds)
	}

	if err := rep.AssertTruthful(); err != nil {
		fmt.Fprintf(os.Stderr, "marketsim: TRUTHFULNESS VIOLATION: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "marketsim: truthfulness assertion holds: no strategic population beats truthtelling under a_fl")
	return 0
}

// emit writes data to path; "" or "-" selects stdout.
func emit(path string, data []byte) error {
	if path == "" || path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "marketsim: "+format+"\n", args...)
	return 1
}
