package afl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"github.com/fedauction/afl"
)

func TestFacadeAuctionHelpers(t *testing.T) {
	bids := []afl.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	cfg := afl.Config{T: 3, K: 1}
	if err := afl.ValidateBids(bids, cfg.T, cfg.K); err != nil {
		t.Fatal(err)
	}
	if got := afl.MinTg(bids); got != 2 {
		t.Fatalf("MinTg = %d", got)
	}
	if got := afl.Qualified(bids, 3, cfg); len(got) != 3 {
		t.Fatalf("Qualified = %v", got)
	}
	wdp, err := afl.RunWDP(bids, 3, cfg)
	if err != nil || !wdp.Feasible || wdp.Cost != 7 {
		t.Fatalf("RunWDP = %+v, %v", wdp, err)
	}
	if got := afl.PaperLocalIters(0.5); got != 5 {
		t.Fatalf("PaperLocalIters = %v", got)
	}
	f := afl.LogLocalIters(3)
	if got := f(0.5); math.Abs(got-3*math.Log(2)) > 1e-12 {
		t.Fatalf("LogLocalIters = %v", got)
	}
	if afl.RuleCritical.String() != "critical" {
		t.Fatal("payment rule alias broken")
	}
	if afl.CostUniform.String() != "uniform" || afl.CostResource.String() != "resource" {
		t.Fatal("cost model aliases broken")
	}
}

func TestFacadeConcurrentAuction(t *testing.T) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 80
	p.T = 12
	p.K = 3
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seq, err := afl.Run(ctx, bids, p.Config())
	if err != nil {
		t.Fatal(err)
	}
	par, err := afl.Run(ctx, bids, p.Config(), afl.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Feasible != par.Feasible || seq.Cost != par.Cost || seq.Tg != par.Tg {
		t.Fatalf("concurrent result differs: %+v vs %+v", par, seq)
	}
}

func TestFacadeRoundSimulation(t *testing.T) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 80
	p.T = 10
	p.K = 3
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := afl.Run(context.Background(), bids, p.Config())
	if err != nil {
		t.Fatalf("auction failed: %v", err)
	}
	sim, err := afl.SimulateRounds(res, p.K, afl.RoundSimOptions{TMax: p.TMax, Jitter: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Rounds) != res.Tg || sim.Makespan <= 0 {
		t.Fatalf("simulation = %+v", sim)
	}
}

func TestFacadeErrNoBids(t *testing.T) {
	if _, err := afl.Run(context.Background(), nil, afl.Config{T: 3, K: 1}); err == nil {
		t.Fatal("expected error")
	}
	if afl.ErrNoBids == nil {
		t.Fatal("ErrNoBids must be exported")
	}
}

func TestFacadeOnlineMechanism(t *testing.T) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 60
	p.T = 10
	p.K = 2
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := afl.RunOnline(bids, afl.ArrivalByStart(bids), afl.OnlineConfig{Tg: 10, K: 2, L: 2, U: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < 0 || res.Coverage > 1 {
		t.Fatalf("coverage %v", res.Coverage)
	}
	for _, w := range res.Winners {
		if w.Payment < w.Bid.Price-1e-9 {
			t.Fatalf("online winner paid below cost: %+v", w)
		}
	}
}

func TestFacadeMulticlassTraining(t *testing.T) {
	rng := afl.NewRNG(8)
	ds, truth := afl.GenerateSyntheticMulti(rng, afl.MultiSyntheticOptions{Samples: 600, Dim: 4, Classes: 3})
	if acc := afl.SoftmaxModelAccuracy(truth, ds); acc < 0.6 {
		t.Fatalf("ground truth accuracy %v", acc)
	}
	shards := afl.PartitionMultiNonIID(rng, ds, 5, 0.5)
	clients := map[int]*afl.MultiFLClient{}
	for i, s := range shards {
		clients[i] = &afl.MultiFLClient{ID: i, Data: s, Theta: 0.5, LR: 0.3}
	}
	schedule := make([][]int, 12)
	for r := range schedule {
		schedule[r] = []int{r % 5, (r + 2) % 5}
	}
	res, err := afl.TrainMulti(clients, schedule, ds, afl.TrainConfig{Dim: 12, Rounds: 12, L2: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if final := res.History[len(res.History)-1]; final.Accuracy < 0.6 {
		t.Fatalf("final accuracy %v", final.Accuracy)
	}
}

func TestFacadeBidIO(t *testing.T) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 10
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf, csvBuf bytes.Buffer
	if err := afl.WriteBidsJSON(&jsonBuf, bids); err != nil {
		t.Fatal(err)
	}
	if err := afl.WriteBidsCSV(&csvBuf, bids); err != nil {
		t.Fatal(err)
	}
	j, err := afl.ReadBidsJSON(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	c, err := afl.ReadBidsCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bids {
		if j[i] != bids[i] || c[i] != bids[i] {
			t.Fatalf("bid %d lost in round trip", i)
		}
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	bids := []afl.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	res, err := afl.Run(context.Background(), bids, afl.Config{T: 3, K: 1})
	if err != nil {
		t.Fatalf("auction failed: %v", err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got afl.Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Tg != res.Tg || got.Cost != res.Cost || len(got.Winners) != len(res.Winners) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range res.Winners {
		if got.Winners[i].BidIndex != res.Winners[i].BidIndex ||
			got.Winners[i].Payment != res.Winners[i].Payment {
			t.Fatalf("winner %d lost in round trip", i)
		}
	}
	if got.Dual.RatioBound != res.Dual.RatioBound {
		t.Fatal("dual certificate lost in round trip")
	}
}

func TestFacadeExactAndVCG(t *testing.T) {
	bids := []afl.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	cfg := afl.Config{T: 3, K: 1}
	opt, err := afl.RunExact(bids, 3, cfg, afl.ExactOptions{})
	if err != nil || !opt.Feasible || !opt.Proven || opt.Cost != 7 {
		t.Fatalf("RunExact = %+v, %v", opt, err)
	}
	vcg, err := afl.RunVCG(bids, 3, cfg, afl.ExactOptions{})
	if err != nil || !vcg.Feasible || vcg.Cost != 7 {
		t.Fatalf("RunVCG = %+v, %v", vcg, err)
	}
	for _, w := range vcg.Winners {
		if w.Payment < w.Bid.Price {
			t.Fatalf("VCG IR violated: %+v", w)
		}
	}
	if _, err := afl.RunExact(nil, 3, cfg, afl.ExactOptions{}); err == nil {
		t.Fatal("empty bids must error")
	}
	if _, err := afl.RunVCG(bids, 3, afl.Config{T: 0, K: 1}, afl.ExactOptions{}); err == nil {
		t.Fatal("bad config must error")
	}
}

func TestFacadeScheduleFromSlots(t *testing.T) {
	sched := afl.ScheduleFromSlots(3, map[int][]int{7: {1, 3}, 2: {2}})
	if len(sched) != 3 || sched[0][0] != 7 || sched[1][0] != 2 || sched[2][0] != 7 {
		t.Fatalf("schedule = %v", sched)
	}
}
