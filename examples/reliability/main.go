// Command reliability plans a federated job against unreliable clients —
// the paper's §VIII future-work scenario. It prices coverage redundancy:
// for each redundancy level r the auction procures K+r participants per
// global iteration, a Monte Carlo estimates the probability that every
// round still collects K updates under client dropout, and the round
// simulator reports the wall-clock makespan under hardware jitter. The
// output is the cost/reliability menu an operator would choose from.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"github.com/fedauction/afl"
)

const (
	dropoutProb = 0.15
	mcRuns      = 500
)

func main() {
	params := afl.DefaultWorkloadParams()
	params.Clients = 300
	params.T = 15
	params.K = 5
	params.Seed = 12
	bids, err := afl.GenerateWorkload(params)
	if err != nil {
		log.Fatal(err)
	}
	rng := afl.NewRNG(99)

	fmt.Printf("planning a K=%d job over %d clients, dropout probability %.0f%%\n\n",
		params.K, params.Clients, 100*dropoutProb)
	fmt.Println("redundancy  T_g  winners  social cost  payments  P(all rounds ≥K)  makespan")
	for _, r := range []int{0, 1, 2, 3, 5} {
		cfg := params.Config()
		cfg.K = params.K + r
		res, err := afl.Run(context.Background(), bids, cfg)
		if errors.Is(err, afl.ErrInfeasible) {
			fmt.Printf("%10d  insufficient supply\n", r)
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		// Monte Carlo: per round, scheduled participants drop out i.i.d.;
		// the job succeeds when every round keeps ≥ K survivors.
		scheduled := make([]int, res.Tg)
		for _, w := range res.Winners {
			for _, t := range w.Slots {
				scheduled[t-1]++
			}
		}
		success := 0
		for run := 0; run < mcRuns; run++ {
			ok := true
			for _, n := range scheduled {
				alive := 0
				for i := 0; i < n; i++ {
					if !rng.Bernoulli(dropoutProb) {
						alive++
					}
				}
				if alive < params.K {
					ok = false
					break
				}
			}
			if ok {
				success++
			}
		}
		sim, err := afl.SimulateRounds(res, params.K, afl.RoundSimOptions{
			TMax: params.TMax, Jitter: 0.15, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10d  %3d  %7d  %11.1f  %8.1f  %16.3f  %8.1f\n",
			r, res.Tg, len(res.Winners), res.Cost, res.TotalPayment(),
			float64(success)/mcRuns, sim.Makespan)
	}
	fmt.Println("\nhigher redundancy buys completion probability with social cost;")
	fmt.Println("the sweet spot is where P(all rounds ≥K) crosses your SLA.")
}
