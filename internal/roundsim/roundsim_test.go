package roundsim

import (
	"context"
	"math"
	"testing"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/workload"
)

func solvedAuction(t *testing.T, tmax float64) ([]core.Bid, core.Result, core.Config) {
	t.Helper()
	p := workload.NewDefaultParams()
	p.Clients = 120
	p.T = 12
	p.K = 4
	p.TMax = tmax
	p.Seed = 9
	bids, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	res, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
	if err != nil {
		t.Fatalf("auction failed: %v", err)
	}
	return bids, res, cfg
}

func TestSimulateDeterministic(t *testing.T) {
	_, res, cfg := solvedAuction(t, 60)
	sim, err := Simulate(res, cfg.K, Options{TMax: cfg.TMax})
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Rounds) != res.Tg {
		t.Fatalf("rounds = %d, want %d", len(sim.Rounds), res.Tg)
	}
	// With the (6d) filter enforced at auction time and no jitter, no
	// participant can exceed t_max: zero stragglers, zero failures.
	if sim.StragglerRate != 0 || sim.FailedRounds != 0 {
		t.Fatalf("deterministic run with (6d) enforced has stragglers=%.3f failed=%d",
			sim.StragglerRate, sim.FailedRounds)
	}
	for _, rt := range sim.Rounds {
		if rt.Duration <= 0 || rt.Duration > cfg.TMax {
			t.Fatalf("round %d duration %v outside (0, %v]", rt.Iteration, rt.Duration, cfg.TMax)
		}
		if rt.OnTime < cfg.K {
			t.Fatalf("round %d has %d on-time < K", rt.Iteration, rt.OnTime)
		}
	}
	if sim.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// Determinism: same options, same result.
	sim2, _ := Simulate(res, cfg.K, Options{TMax: cfg.TMax})
	if sim2.Makespan != sim.Makespan {
		t.Fatal("deterministic simulation not reproducible")
	}
}

func TestSimulateJitterCausesStragglers(t *testing.T) {
	_, res, cfg := solvedAuction(t, 60)
	// Winners sit close to t_max=60? Not necessarily, so tighten the
	// cutoff at simulation time to force stragglers under heavy jitter.
	sim, err := Simulate(res, cfg.K, Options{TMax: 40, Jitter: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sim.StragglerRate == 0 {
		t.Fatal("heavy jitter with a tight cutoff produced no stragglers")
	}
	// Makespan accounting: every round costs at most the cutoff.
	if sim.Makespan > 40*float64(res.Tg)+1e-9 {
		t.Fatalf("makespan %v exceeds cutoff budget", sim.Makespan)
	}
}

func TestSimulateWithoutCutoff(t *testing.T) {
	_, res, cfg := solvedAuction(t, 60)
	sim, err := Simulate(res, cfg.K, Options{Jitter: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// No cutoff: nobody is dropped, no round fails, but durations are
	// unbounded above t_max (the cost of not enforcing (6d)).
	if sim.StragglerRate != 0 || sim.FailedRounds != 0 {
		t.Fatalf("uncut run dropped participants: %+v", sim)
	}
	exceeded := false
	for _, rt := range sim.Rounds {
		if rt.Duration > cfg.TMax {
			exceeded = true
		}
	}
	if !exceeded {
		t.Log("no round exceeded t_max under jitter; acceptable but unusual")
	}
	if sim.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestSimulateDropouts(t *testing.T) {
	_, res, cfg := solvedAuction(t, 60)
	// Certain dropout: every scheduled participation vanishes, every round
	// fails, and nobody is merely a straggler.
	all, err := Simulate(res, cfg.K, Options{TMax: cfg.TMax, DropoutProb: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scheduled := 0
	for _, rt := range all.Rounds {
		scheduled += rt.OnTime + rt.Stragglers + rt.Dropouts
	}
	if all.Dropouts != scheduled || all.FailedRounds != res.Tg || all.StragglerRate != 0 {
		t.Fatalf("full-dropout run inconsistent: %+v", all)
	}
	// Partial dropout: deterministic under a fixed seed, and the zero
	// option draws nothing, leaving a jittered run bit-identical to one
	// that never mentioned the field.
	some, err := Simulate(res, cfg.K, Options{TMax: cfg.TMax, Jitter: 0.2, DropoutProb: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if some.Dropouts == 0 {
		t.Fatal("30% dropout produced none")
	}
	again, _ := Simulate(res, cfg.K, Options{TMax: cfg.TMax, Jitter: 0.2, DropoutProb: 0.3, Seed: 7})
	if again.Makespan != some.Makespan || again.Dropouts != some.Dropouts {
		t.Fatal("dropout simulation not reproducible")
	}
	base, _ := Simulate(res, cfg.K, Options{TMax: cfg.TMax, Jitter: 0.2, Seed: 7})
	zero, _ := Simulate(res, cfg.K, Options{TMax: cfg.TMax, Jitter: 0.2, DropoutProb: 0, Seed: 7})
	if zero.Makespan != base.Makespan || zero.StragglerRate != base.StragglerRate {
		t.Fatal("DropoutProb=0 perturbed the jitter stream")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(core.Result{}, 1, Options{}); err == nil {
		t.Fatal("infeasible result must error")
	}
	if _, err := Simulate(core.Result{Feasible: true, Tg: 1}, 0, Options{}); err == nil {
		t.Fatal("K=0 must error")
	}
}

func TestSimulateRoundFailure(t *testing.T) {
	// A single slow winner and a cutoff below its round time: the round
	// must fail.
	res := core.Result{
		Feasible: true,
		Tg:       1,
		Winners: []core.Winner{{
			Bid:   core.Bid{Client: 0, Price: 1, Theta: 0.3, Start: 1, End: 1, Rounds: 1, CompTime: 10, CommTime: 15},
			Slots: []int{1},
		}},
	}
	// Round time = ⌊10·0.7⌋·10 + 15 = 85 > 50.
	sim, err := Simulate(res, 1, Options{TMax: 50})
	if err != nil {
		t.Fatal(err)
	}
	if sim.FailedRounds != 1 || !sim.Rounds[0].Failed {
		t.Fatalf("expected a failed round: %+v", sim)
	}
	if math.Abs(sim.Rounds[0].Duration-50) > 1e-12 {
		t.Fatalf("failed round duration %v, want the cutoff", sim.Rounds[0].Duration)
	}
}
