package core_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/seedwdp"
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

// sweepFuzzStride is the byte length of one bid in decodeSweepBids.
const sweepFuzzStride = 6

// decodeSweepBids turns a byte stream into a tie-heavy multi-minded
// population for a horizon of maxT ≤ 12: at most 15 clients with at most
// 3 bids each (a client's further bids are dropped), prices drawn from
// {1, …, prices}, θ exactly on an entry boundary 1 − 1/e with
// e ∈ [2, 12], and windows and rounds inside [1, maxT]. With nearTie the
// top price is swapped for 12.25 or its float successor, by the parity of
// d[1]/prices: the two divide to the same key at marginals 5 and 10, a
// tie inside one class that integer prices can never produce.
func decodeSweepBids(data []byte, maxT, prices int, nearTie bool) []core.Bid {
	var bids []core.Bid
	per := map[int]int{}
	for i := 0; i+sweepFuzzStride <= len(data); i += sweepFuzzStride {
		d := data[i : i+sweepFuzzStride]
		client := int(d[0] % 15)
		if per[client] == 3 {
			continue
		}
		start := 1 + int(d[3])%maxT
		end := start + int(d[4])%(maxT-start+1)
		price := float64(1 + int(d[1])%prices)
		if nearTie && price == float64(prices) {
			price = 12.25
			if int(d[1])/prices%2 == 1 {
				price = math.Nextafter(price, 13)
			}
		}
		b := core.Bid{
			Client: client,
			Index:  per[client],
			Price:  price,
			Theta:  1 - 1/float64(2+int(d[2])%11),
			Start:  start,
			End:    end,
			Rounds: 1 + int(d[5])%(end-start+1),
		}
		b.TrueCost = b.Price
		per[client]++
		bids = append(bids, b)
	}
	return bids
}

// encodeSweepBids is the inverse of decodeSweepBids up to its folding:
// prices map to their rank among the population's distinct prices
// (capped at the top value) and θ to its nearest entry boundary.
func encodeSweepBids(bids []core.Bid) []byte {
	var distinct []float64
	for _, b := range bids {
		if !slices.Contains(distinct, b.Price) {
			distinct = append(distinct, b.Price)
		}
	}
	slices.Sort(distinct)
	var data []byte
	for _, b := range bids {
		e := int(math.Round(1 / (1 - b.Theta)))
		data = append(data,
			byte(b.Client),
			byte(min(slices.Index(distinct, b.Price), 3)),
			byte(min(max(e, 2), 12)-2),
			byte(b.Start-1),
			byte(b.End-b.Start),
			byte(b.Rounds-1))
	}
	return data
}

// FuzzSweepVsSeed holds the class-based sweep to the frozen per-bid
// oracle on small tie-heavy populations (see decodeSweepBids): with three
// or four integer prices, (key, bid) ties between classes, equal keys
// across marginals and sibling spares are common. flags selects the
// earliest-fit schedule rule (bit 0), ExcludeOwnBids (bit 1), a fourth
// price (bit 2) and the near-tie pair in place of the top price (bit 3);
// payments follow Algorithm 3 (RuleCritical), so every field the oracle
// exposes must match exactly. Run at one worker and at three, the sweep
// must agree with itself bit for bit. The corpus starts from the
// differential harness's degenerate cases and TestClassHeadKeyTie's pair.
func FuzzSweepVsSeed(f *testing.F) {
	for _, tc := range degenerateCases() {
		data := encodeSweepBids(tc.bids)
		rawT, rawK := uint8(min(tc.cfg.T, 12)-1), uint8(min(tc.cfg.K, 3)-1)
		var flags uint8 = 4
		if tc.cfg.ScheduleRule == core.ScheduleEarliest {
			flags |= 1
		}
		if tc.cfg.ExcludeOwnBids {
			flags |= 2
		}
		f.Add(data, rawT, rawK, flags)
		f.Add(data, rawT, rawK, flags^3)
	}
	// Clients 0 and 1 at 12.25's successor and 12.25, both in [1, 5] for
	// five rounds at θ 0.5, under T = 5 and K = 1.
	f.Add([]byte{0, 5, 0, 0, 4, 4, 1, 2, 0, 0, 4, 4}, uint8(4), uint8(0), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, rawT, rawK, flags uint8) {
		maxT := 1 + int(rawT)%12
		prices := 3
		if flags&4 != 0 {
			prices = 4
		}
		bids := decodeSweepBids(data, maxT, prices, flags&8 != 0)
		cfg := core.Config{T: maxT, K: 1 + int(rawK)%3, ExcludeOwnBids: flags&2 != 0}
		if flags&1 != 0 {
			cfg.ScheduleRule = core.ScheduleEarliest
		}
		if err := core.ValidateBids(bids, cfg.T, cfg.K); err != nil {
			return // only an empty population: every decoded bid is valid
		}
		seq := sweep(t, bids, cfg, core.RunOptions{Workers: 1})
		if conc := sweep(t, bids, cfg, core.RunOptions{Workers: 3}); !reflect.DeepEqual(seq, conc) {
			t.Fatal("Run over 3 workers diverged from one worker")
		}
		oracle, err := seedwdp.RunAuction(bids, cfg)
		if err != nil {
			t.Fatalf("seed oracle: %v", err)
		}
		assertSeedEqual(t, seq, oracle, oracle, cfg)
	})
}
