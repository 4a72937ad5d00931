package afl_test

import (
	"context"
	"fmt"

	"github.com/fedauction/afl"
)

// ExampleRun runs A_FL on the paper's §V-B worked example bids:
// T = 3 global iterations, K = 1 participant per iteration, and three
// single-bid clients B1($2,[1,2],1), B2($6,[2,3],2), B3($5,[1,3],2).
// The paper solves the fixed T̂_g = 3 WDP (see ExampleRunWDP); the full
// enumeration discovers that T̂_g = 2 achieves the same cost 7 with the
// same winners and prefers the smaller horizon.
func ExampleRun() {
	bids := []afl.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	res, err := afl.Run(context.Background(), bids, afl.Config{T: 3, K: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("T_g*=%d cost=%.0f\n", res.Tg, res.Cost)
	for _, w := range res.Winners {
		fmt.Printf("client %d wins: price %.0f, paid %.1f, slots %v\n",
			w.Bid.Client, w.Bid.Price, w.Payment, w.Slots)
	}
	// Output:
	// T_g*=2 cost=7
	// client 0 wins: price 2, paid 2.5, slots [1]
	// client 2 wins: price 5, paid 5.0, slots [1 2]
}

// ExampleRunWDP solves a single winner-determination problem at a fixed
// number of global iterations and prints its approximation certificate.
func ExampleRunWDP() {
	bids := []afl.Bid{
		{Client: 0, Price: 2, Theta: 0.5, Start: 1, End: 2, Rounds: 1},
		{Client: 1, Price: 6, Theta: 0.5, Start: 2, End: 3, Rounds: 2},
		{Client: 2, Price: 5, Theta: 0.5, Start: 1, End: 3, Rounds: 2},
	}
	wdp, err := afl.RunWDP(bids, 3, afl.Config{T: 3, K: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("feasible=%v cost=%.0f winners=%d\n", wdp.Feasible, wdp.Cost, len(wdp.Winners))
	fmt.Printf("optimal cost is at least %.2f\n", wdp.Dual.Bound())
	// Output:
	// feasible=true cost=7 winners=2
	// optimal cost is at least 5.60
}

// ExampleMinTg shows the coupling between local accuracy and the number
// of global iterations: a bid with θ = 0.8 forces T_g ≥ 1/(1−0.8) = 5.
func ExampleMinTg() {
	bids := []afl.Bid{
		{Client: 0, Price: 1, Theta: 0.8, Start: 1, End: 10, Rounds: 2},
		{Client: 1, Price: 1, Theta: 0.9, Start: 1, End: 10, Rounds: 2},
	}
	fmt.Println(afl.MinTg(bids))
	// Output:
	// 5
}
