package afl_test

// Integration tests exercising the public facade end to end: workload →
// auction → validation → scheduling → federated training → marketplace
// session — the pipeline a downstream user runs.

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/fedauction/afl"
)

func TestPublicAuctionPipeline(t *testing.T) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 150
	p.T = 20
	p.K = 5
	p.Seed = 3
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := afl.ValidateBids(bids, p.T, p.K); err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	res, err := afl.Run(context.Background(), bids, cfg)
	if err != nil {
		t.Fatalf("default-shaped instance should be feasible: %v", err)
	}
	if err := afl.CheckSolution(bids, res, cfg); err != nil {
		t.Fatal(err)
	}
	if res.Tg < afl.MinTg(bids) || res.Tg > p.T {
		t.Fatalf("T_g*=%d outside [%d,%d]", res.Tg, afl.MinTg(bids), p.T)
	}
	if res.TotalPayment() < res.Cost {
		t.Fatalf("payments %.2f below cost %.2f (IR must push them above)", res.TotalPayment(), res.Cost)
	}
	if res.Dual.RatioBound < 1 {
		t.Fatalf("ratio bound %v < 1", res.Dual.RatioBound)
	}
	// The full WDP trace is exposed for Fig. 7-style analyses.
	if len(res.WDPs) == 0 {
		t.Fatal("WDP trace missing")
	}
}

func TestPublicBaselinesComparable(t *testing.T) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 200
	p.T = 20
	p.K = 5
	p.Seed = 4
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	res, err := afl.Run(context.Background(), bids, cfg)
	if err != nil {
		t.Fatalf("A_FL failed: %v", err)
	}
	for _, m := range []afl.Mechanism{afl.FCFS{}, afl.Greedy{}, afl.AOnline{}} {
		out, ok := afl.RunBaselineOverTg(m, bids, cfg)
		if !ok {
			t.Fatalf("%s infeasible on a feasible instance", m.Name())
		}
		if res.Cost > out.Cost+1e-9 {
			t.Fatalf("A_FL cost %.2f above %s cost %.2f", res.Cost, m.Name(), out.Cost)
		}
	}
}

func TestPublicAuctionToTraining(t *testing.T) {
	rng := afl.NewRNG(5)
	const clients, dim = 30, 5
	full, _ := afl.GenerateSynthetic(rng, afl.SyntheticOptions{Samples: 1500, Dim: dim})
	shards := afl.PartitionNonIID(rng, full, clients, 0.5)

	var bids []afl.Bid
	learners := make(map[int]*afl.FLClient)
	for c := 0; c < clients; c++ {
		theta := rng.FloatRange(0.4, 0.7)
		bids = append(bids, afl.Bid{
			Client: c, Price: rng.FloatRange(10, 50), Theta: theta,
			Start: 1, End: 10, Rounds: rng.IntRange(2, 6),
			CompTime: 6, CommTime: 12,
		})
		learners[c] = &afl.FLClient{ID: c, Data: shards[c], Theta: theta, LR: 0.5}
	}
	cfg := afl.Config{T: 10, K: 4, TMax: 60}
	res, err := afl.Run(context.Background(), bids, cfg)
	if err != nil {
		t.Fatalf("auction failed: %v", err)
	}
	schedule := afl.ScheduleFromResult(res)
	if len(schedule) != res.Tg {
		t.Fatalf("schedule rounds %d ≠ T_g %d", len(schedule), res.Tg)
	}
	for r, ids := range schedule {
		if len(ids) < cfg.K {
			t.Fatalf("round %d has %d participants < K", r+1, len(ids))
		}
	}
	train, err := afl.Train(learners, schedule, full, afl.TrainConfig{
		Dim: dim, Rounds: res.Tg, L2: 0.01, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if train.RoundsRun != res.Tg {
		t.Fatalf("ran %d rounds, want %d", train.RoundsRun, res.Tg)
	}
	final := train.History[len(train.History)-1]
	if final.Accuracy < 0.7 {
		t.Fatalf("final accuracy %.3f too low", final.Accuracy)
	}
	if afl.ModelAccuracy(train.Weights, full) != final.Accuracy {
		t.Fatal("ModelAccuracy disagrees with history")
	}
	if afl.ModelLoss(train.Weights, full, 0.01) <= 0 {
		t.Fatal("loss must be positive")
	}
}

func TestPublicMarketplaceSession(t *testing.T) {
	rng := afl.NewRNG(6)
	const agents, dim = 6, 4
	full, _ := afl.GenerateSynthetic(rng, afl.SyntheticOptions{Samples: 600, Dim: dim})
	shards := afl.PartitionIID(rng, full, agents)
	job := afl.Job{Name: "it", T: 5, K: 2, TMax: 60, Dim: dim}
	server := afl.NewServer(afl.ServerConfig{Job: job, L2: 0.01, Eval: full, RecvTimeout: 2 * time.Second})

	conns := make(map[int]afl.Conn, agents)
	reports := make([]afl.AgentReport, agents)
	var wg sync.WaitGroup
	for i := 0; i < agents; i++ {
		sc, ac := afl.Pipe(32)
		conns[i] = sc
		theta := rng.FloatRange(0.4, 0.6)
		a := &afl.Agent{
			ID: i,
			Bids: []afl.Bid{{
				Price: rng.FloatRange(5, 20), Theta: theta,
				Start: 1, End: 5, Rounds: 3, CompTime: 5, CommTime: 10,
			}},
			Learner:     &afl.FLClient{ID: i, Data: shards[i], Theta: theta, LR: 0.4},
			L2:          0.01,
			RecvTimeout: 10 * time.Second,
		}
		wg.Add(1)
		go func(i int, a *afl.Agent, c afl.Conn) {
			defer wg.Done()
			r, err := a.Run(c)
			if err != nil {
				t.Errorf("agent %d: %v", i, err)
			}
			reports[i] = r
		}(i, a, ac)
	}
	session, err := server.RunSession(conns)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	if !session.Auction.Feasible {
		t.Fatal("session auction infeasible")
	}
	if session.Ledger.Total() <= 0 {
		t.Fatal("no payments settled")
	}
	paid := 0.0
	for _, r := range reports {
		paid += r.Paid
	}
	if paid != session.Ledger.Total() {
		t.Fatalf("agents saw %.2f, ledger says %.2f", paid, session.Ledger.Total())
	}
}
