// Command quickstart runs one A_FL auction end to end on a small
// generated bid population and prints the outcome: the chosen number of
// global iterations, the winners with their schedules and payments, and
// the per-instance approximation certificate.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"github.com/fedauction/afl"
)

func main() {
	// A small marketplace: 60 clients, 3 bids each, 12 global iterations
	// maximum, 4 participants needed per iteration.
	params := afl.DefaultWorkloadParams()
	params.Clients = 60
	params.BidsPerUser = 3
	params.T = 12
	params.K = 4
	params.Seed = 42

	bids, err := afl.GenerateWorkload(params)
	if err != nil {
		log.Fatalf("generate workload: %v", err)
	}
	cfg := params.Config()

	res, err := afl.Run(context.Background(), bids, cfg)
	if errors.Is(err, afl.ErrInfeasible) {
		log.Fatal("no feasible schedule: not enough supply")
	}
	if err != nil {
		log.Fatalf("auction: %v", err)
	}

	fmt.Printf("A_FL auction over %d bids from %d clients\n", len(bids), params.Clients)
	fmt.Printf("  chosen global iterations T_g* = %d (feasible range starts at %d)\n",
		res.Tg, afl.MinTg(bids))
	fmt.Printf("  social cost  = %.2f\n", res.Cost)
	fmt.Printf("  payments     = %.2f\n", res.TotalPayment())
	fmt.Printf("  winners      = %d, θ_max = %.2f\n", len(res.Winners), res.ThetaMax())
	fmt.Printf("  certificate  : cost ≤ %.3f × optimal (H_Tg·ω bound, Lemma 5)\n", res.Dual.RatioBound)
	fmt.Printf("  dual bound   : optimal cost ≥ %.2f → empirical ratio ≤ %.3f\n",
		res.Dual.Objective, res.Cost/res.Dual.Objective)
	fmt.Println()

	fmt.Println("winners (client, bid, price → payment, scheduled iterations):")
	for _, w := range res.Winners {
		fmt.Printf("  client %3d bid %d: %6.2f → %6.2f  slots %v\n",
			w.Bid.Client, w.Bid.Index, w.Bid.Price, w.Payment, w.Slots)
	}

	// Defense in depth: re-verify every ILP (6) constraint before acting
	// on the outcome.
	if err := afl.CheckSolution(bids, res, cfg); err != nil {
		log.Fatalf("solution failed verification: %v", err)
	}
	fmt.Println("\nsolution verified against all ILP (6) constraints ✓")
}
