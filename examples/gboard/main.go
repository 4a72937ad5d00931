// Command gboard simulates the paper's motivating scenario (§I): a
// Gboard-style federated job where phones train a suggestion model on
// private on-device data. The suggestion task is multiclass (predict one
// of several candidate words), so the model is a softmax classifier. The
// cloud server procures participation with the A_FL auction and then
// actually executes the winning schedule with a FedAvg simulation: every
// winner trains its local shard to the local accuracy θ it bid, in
// exactly the global iterations it was scheduled for.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"github.com/fedauction/afl"
)

const (
	numClients = 40
	featDim    = 6
	classes    = 4
	dim        = classes * featDim // flattened softmax weights
	maxT       = 16
	coverageK  = 5
)

func main() {
	rng := afl.NewRNG(7)

	// Private on-device data: one non-IID shard per phone (class-skewed,
	// as typing habits would be).
	full, _ := afl.GenerateSyntheticMulti(rng, afl.MultiSyntheticOptions{
		Samples: 4000, Dim: featDim, Classes: classes, LabelNoise: 0.05,
	})
	shards := afl.PartitionMultiNonIID(rng, full, numClients, 0.6)

	// Each phone derives its bid from its real circumstances: battery
	// (rounds), owner schedule (window), hardware (timing), and the local
	// accuracy it is prepared to reach.
	var bids []afl.Bid
	learners := make(map[int]*afl.MultiFLClient)
	for c := 0; c < numClients; c++ {
		theta := rng.FloatRange(0.35, 0.75)
		start := rng.IntRange(1, maxT/4)
		end := rng.IntRange(3*maxT/4, maxT)
		rounds := rng.IntRange(3, end-start)
		comp := rng.FloatRange(5, 10)
		comm := rng.FloatRange(10, 15)
		cost := 0.4*afl.PaperLocalIters(theta)*comp + 0.5*comm*float64(rounds)
		bids = append(bids, afl.Bid{
			Client: c, Price: cost, Theta: theta,
			Start: start, End: end, Rounds: rounds,
			CompTime: comp, CommTime: comm,
		})
		learners[c] = &afl.MultiFLClient{ID: c, Data: shards[c], Theta: theta, LR: 0.4}
	}

	cfg := afl.Config{T: maxT, K: coverageK, TMax: 60}
	res, err := afl.Run(context.Background(), bids, cfg)
	if errors.Is(err, afl.ErrInfeasible) {
		log.Fatal("auction infeasible: relax K or extend T")
	}
	if err != nil {
		log.Fatalf("auction: %v", err)
	}
	fmt.Printf("auction: T_g*=%d, %d winners, social cost %.1f, payments %.1f (ratio bound %.2f)\n",
		res.Tg, len(res.Winners), res.Cost, res.TotalPayment(), res.Dual.RatioBound)

	// Execute the schedule the auction produced.
	schedule := afl.ScheduleFromResult(res)
	train, err := afl.TrainMulti(learners, schedule, full, afl.TrainConfig{
		Dim: dim, Rounds: res.Tg, Epsilon: 0.1, L2: 0.01, Seed: 7,
	})
	if err != nil {
		log.Fatalf("training: %v", err)
	}

	fmt.Println("\nround  participants  local-iters  ‖∇J‖      loss    accuracy")
	for _, h := range train.History {
		fmt.Printf("%5d  %12d  %11d  %7.4f  %6.4f  %7.3f\n",
			h.Round, len(h.Participants), h.LocalIters, h.GradNorm, h.Loss, h.Accuracy)
	}
	final := train.History[len(train.History)-1]
	fmt.Printf("\nconverged=%v after %d rounds; final accuracy %.3f\n",
		train.Converged, train.RoundsRun, final.Accuracy)

	// The economics: every winner walks away with non-negative utility.
	fmt.Println("\nwinner utilities (payment − true cost):")
	for _, w := range res.Winners {
		fmt.Printf("  client %2d: %+.2f\n", w.Bid.Client, w.Utility())
	}
}
