package core

import (
	"sort"
	"testing"

	"github.com/fedauction/afl/internal/stats"
)

// TestDualFeasibilityLemma3 verifies the constructed duals satisfy the
// dual constraint (8a) of LP (8):
//
//	Σ_{t ∈ l} g(t) − λ_il − q_i ≤ ρ_il   for every feasible schedule l,
//
// with q_i = 0 and λ_il = 0 for unselected schedules. The schedule space
// is exponential, so the test samples random feasible schedules per bid
// (plus the representative and the winners' actual schedules) — exactly
// the claim of Lemma 3, checked empirically.
func TestDualFeasibilityLemma3(t *testing.T) {
	rng := stats.NewRNG(333)
	const tol = 1e-7
	for trial := 0; trial < 60; trial++ {
		bids, tg, k := randomWDPInstance(rng)
		cfg := Config{T: tg, K: k}
		qual := Qualified(bids, tg, cfg)
		res := SolveWDP(bids, qual, tg, cfg)
		if !res.Feasible {
			continue
		}
		g, lambda := dualVectors(res)
		selectedSlots := map[int][]int{}
		for _, w := range res.Winners {
			selectedSlots[w.BidIndex] = w.Slots
		}
		for _, idx := range qual {
			b := bids[idx]
			hi := b.End
			if hi > tg {
				hi = tg
			}
			window := make([]int, 0, hi-b.Start+1)
			for s := b.Start; s <= hi; s++ {
				window = append(window, s)
			}
			if len(window) < b.Rounds {
				continue
			}
			// The winner's own schedule with its λ.
			if slots, ok := selectedSlots[idx]; ok {
				if v := slotDualSum(g, slots) - lambda[idx]; v > b.Price+tol {
					t.Fatalf("trial %d: selected schedule of %s violates (8a): %v > %v",
						trial, b, v, b.Price)
				}
			}
			// Random feasible schedules (λ = 0 when unselected).
			for probe := 0; probe < 8; probe++ {
				slots := sampleSchedule(rng, window, b.Rounds)
				if v := slotDualSum(g, slots); v > b.Price+tol {
					t.Fatalf("trial %d: schedule %v of %s violates (8a): %v > %v",
						trial, slots, b, v, b.Price)
				}
			}
		}
	}
}

// dualVectors derives the dual variables of LP (8) that A_winner's solve
// res constructs (lines 16-23 of Algorithm 2), which its Dual sums into
// Objective without keeping: g(t) = η_φ(t)/(H_{T̂_g}·ω) for t = 1..T̂_g
// at index t-1, with η_φ(t) the largest φ a winner recorded on t, and,
// keyed by each winner's BidIndex, λ_il = Σ_{t∈F_il} (η_φ(t) − φ_il)/
// (H_{T̂_g}·ω) over the slots F_il the winner covered. Each λ_il is summed
// in the order of F_il, as finalizeDual sums it. res must be a feasible
// A_winner solve: an LP-rounded cover carries its greedy seed's dual,
// which its own winners do not determine.
func dualVectors(res WDPResult) (g []float64, lambda map[int]float64) {
	d := res.Dual
	eta := make([]float64, d.Tg)
	for _, win := range res.Winners {
		for _, t := range win.covered {
			if win.phi > eta[t-1] {
				eta[t-1] = win.phi
			}
		}
	}
	scale := d.HarmonicTg * d.Omega
	g = make([]float64, d.Tg)
	for t := range g {
		g[t] = eta[t] / scale
	}
	lambda = make(map[int]float64, len(res.Winners))
	for _, win := range res.Winners {
		var l float64
		for _, t := range win.covered {
			l += (eta[t-1] - win.phi) / scale
		}
		lambda[win.BidIndex] = l
	}
	return g, lambda
}

func slotDualSum(g []float64, slots []int) float64 {
	var sum float64
	for _, t := range slots {
		sum += g[t-1]
	}
	return sum
}

func sampleSchedule(rng *stats.RNG, window []int, rounds int) []int {
	idx := rng.Perm(len(window))[:rounds]
	sort.Ints(idx)
	out := make([]int, rounds)
	for i, j := range idx {
		out[i] = window[j]
	}
	return out
}

// FuzzRunWDP exercises SolveWDP + CheckWDPSolution with fuzzer-shaped
// inputs: whatever the fuzzer produces, the solver must not panic, and
// any feasible solution it returns must satisfy every ILP (6) constraint.
func FuzzRunWDP(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(1), uint8(5))
	f.Add(int64(42), uint8(8), uint8(2), uint8(12))
	f.Add(int64(7), uint8(2), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, tgRaw, kRaw, clientsRaw uint8) {
		tg := int(tgRaw%12) + 1
		k := int(kRaw%3) + 1
		clients := int(clientsRaw%15) + 1
		rng := stats.NewRNG(seed)
		var bids []Bid
		for c := 0; c < clients; c++ {
			n := rng.IntRange(1, 2)
			for j := 0; j < n; j++ {
				start := rng.IntRange(1, tg)
				end := rng.IntRange(start, tg)
				bids = append(bids, Bid{
					Client: c,
					Index:  j,
					Price:  rng.FloatRange(0.5, 60),
					Theta:  rng.FloatRange(0.05, 0.95),
					Start:  start,
					End:    end,
					Rounds: rng.IntRange(1, end-start+1),
				})
			}
		}
		cfg := Config{T: tg, K: k}
		res, err := RunWDP(bids, tg, cfg)
		if err != nil {
			return // validation errors are acceptable outcomes
		}
		if !res.Feasible {
			return
		}
		if err := CheckWDPSolution(bids, res, cfg); err != nil {
			t.Fatalf("feasible result violates ILP (6): %v", err)
		}
		for _, w := range res.Winners {
			if w.Payment < w.Bid.Price-1e-9 {
				t.Fatalf("IR violated: %v paid %v", w.Bid, w.Payment)
			}
		}
	})
}
