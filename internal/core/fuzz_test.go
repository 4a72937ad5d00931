package core_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/fedauction/afl/internal/core"
)

// fuzzDecodeBids turns an arbitrary byte stream into a bid population,
// deliberately covering both well-formed and hostile shapes: windows that
// are empty, inverted, or outside [1, T]; Rounds exceeding the window;
// NaN/zero/over-unity θ; negative prices. ValidateBids is the gate under
// test — anything it accepts must survive the full auction pipeline.
func fuzzDecodeBids(data []byte, maxT int) []core.Bid {
	const stride = 9
	n := len(data) / stride
	if n > 32 {
		n = 32
	}
	bids := make([]core.Bid, 0, n)
	for i := 0; i < n; i++ {
		d := data[i*stride : (i+1)*stride]
		b := core.Bid{
			Client: int(d[0] % 12),
			Index:  i,
			Price:  float64(int(d[1])-8) / 4, // occasionally ≤ 0
			Theta:  float64(d[2]) / 200,      // can exceed 1
			Start:  int(d[3]%80) - 8,         // can be < 1 or > T
			End:    int(d[4]%80) - 8,
			Rounds: int(d[5]%12) - 1, // can be ≤ 0 or exceed the window
			// Per-round timing; d[8]&1 flips in NaN θ to probe float guards.
			CompTime: float64(d[6]) / 10,
			CommTime: float64(d[7]) / 10,
		}
		if d[8]&1 == 1 {
			b.Theta = math.NaN()
		}
		b.TrueCost = b.Price
		bids = append(bids, b)
	}
	return bids
}

// FuzzValidateBids drives arbitrary bid populations through the full
// public pipeline. The invariant: ValidateBids either rejects the input,
// or everything downstream — sequential sweep, concurrent sweep, Engine,
// solution checking — completes without panicking, and the three live
// paths agree bit-for-bit.
func FuzzValidateBids(f *testing.F) {
	// One well-formed bid, one empty-window bid, one all-zeros population.
	f.Add([]byte{1, 16, 100, 9, 12, 3, 50, 50, 0}, uint8(12), uint8(2), uint8(0))
	f.Add([]byte{2, 16, 100, 12, 9, 3, 50, 50, 0}, uint8(12), uint8(2), uint8(1))
	f.Add(make([]byte, 27), uint8(8), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, rawT, rawK, rawRule uint8) {
		maxT := int(rawT%64) + 1
		k := int(rawK%8) + 1
		bids := fuzzDecodeBids(data, maxT)
		if err := core.ValidateBids(bids, maxT, k); err != nil {
			return // rejected inputs need no further guarantees
		}
		cfg := core.Config{
			T:              maxT,
			K:              k,
			PaymentRule:    core.PaymentRule(rawRule % 3),
			ExcludeOwnBids: rawRule&4 != 0,
		}
		if rawRule&8 != 0 {
			cfg.ReservePrice = 100
		}
		seq, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			return // ErrNoBids on empty populations
		}
		if err := core.CheckSolution(bids, seq, cfg); err != nil {
			t.Fatalf("accepted bids produced an invalid solution: %v", err)
		}
		if conc := sweep(t, bids, cfg, core.RunOptions{Workers: 2}); !reflect.DeepEqual(seq, conc) {
			t.Fatal("concurrent result diverged from sequential")
		}
		eng, err := core.NewEngine(bids, cfg)
		if err != nil {
			t.Fatalf("NewEngine rejected validated bids: %v", err)
		}
		if got := sweepEngine(t, eng, core.RunOptions{}); !reflect.DeepEqual(seq, got) {
			t.Fatal("Engine result diverged from Run")
		}
	})
}
