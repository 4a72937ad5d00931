package core

import (
	"fmt"
	"math"
	"slices"
)

// BidSet is the columnar (struct-of-arrays) form of a bid population: one
// flat parallel slice per bid field, plus a client-sibling index computed
// once at compile time. It is the storage layout of the WDP hot path —
// qualification scans, ψ_max accumulation and the greedy selection loop
// read one column at a time instead of striding over 96-byte Bid structs,
// which keeps million-bid scans cache-linear.
//
// A BidSet is immutable after CompileBids and safe to share: across the
// worker pool of one sweep, across the instances of a batch (see
// Instance.Set in internal/batch), and across the durable market's
// submissions. Compile once, solve everywhere — the row-oriented []Bid
// entry points remain as thin compat wrappers that compile on entry and
// return bit-identical results.
//
// Column values are exact copies of the source fields, so the round trip
// Bid(i) == bids[i] holds field-for-field for every input, including
// non-finite floats and out-of-range windows (validation is a separate
// concern; see ValidateBidSet).
type BidSet struct {
	n int

	// Float columns.
	price, trueCost, theta, comp, comm []float64
	// Int columns.
	start, end, rounds, client, index []int

	// Client-sibling grouping as a CSR: sibOrder lists every bid index
	// grouped by client (groups ascending by client id, indices ascending
	// inside a group), sibStart[r]..sibStart[r+1] delimits group r, and
	// sibRow[i] is bid i's group row. It replaces the map[int][]int
	// client grouping of the row-oriented engine. Like that grouping it
	// covers ALL bids, qualified or not: clearing the candidate flag of a
	// sibling that was never qualified is a no-op (flags at unqualified
	// indices are dead), so one grouping serves every solve.
	sibOrder, sibStart, sibRow []int

	// cls caches the lazily built shape-class index of the class-based
	// selection fast path (see classsel.go). compile attaches a fresh
	// holder.
	cls *classHolder
}

// CompileBids builds the columnar form of bids. The input slice is read
// once and not retained; len(bids) == 0 yields a valid empty set.
func CompileBids(bids []Bid) *BidSet {
	n := len(bids)
	s := &BidSet{
		n:     n,
		price: make([]float64, n), trueCost: make([]float64, n), theta: make([]float64, n),
		comp: make([]float64, n), comm: make([]float64, n),
		start: make([]int, n), end: make([]int, n), rounds: make([]int, n),
		client: make([]int, n), index: make([]int, n),
		cls: &classHolder{},
	}
	for i, b := range bids {
		s.price[i], s.trueCost[i], s.theta[i] = b.Price, b.TrueCost, b.Theta
		s.comp[i], s.comm[i] = b.CompTime, b.CommTime
		s.start[i], s.end[i], s.rounds[i] = b.Start, b.End, b.Rounds
		s.client[i], s.index[i] = b.Client, b.Index
	}
	s.buildSiblings()
	return s
}

// buildSiblings computes the client-sibling CSR from the client column.
func (s *BidSet) buildSiblings() {
	n := s.n
	s.sibOrder = make([]int, n)
	for i := range s.sibOrder {
		s.sibOrder[i] = i
	}
	slices.SortFunc(s.sibOrder, func(a, b int) int {
		switch ca, cb := s.client[a], s.client[b]; {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		}
		return a - b
	})
	s.sibRow = make([]int, n)
	for k := 0; k < n; k++ {
		if k == 0 || s.client[s.sibOrder[k]] != s.client[s.sibOrder[k-1]] {
			s.sibStart = append(s.sibStart, k)
		}
		s.sibRow[s.sibOrder[k]] = len(s.sibStart) - 1
	}
	s.sibStart = append(s.sibStart, n)
}

// Len returns the number of bids in the set.
func (s *BidSet) Len() int { return s.n }

// Bid reconstructs bid i from the columns. The reconstruction is exact:
// Bid(i) equals the i-th element of the slice CompileBids consumed,
// field for field.
func (s *BidSet) Bid(i int) Bid {
	return Bid{
		Client: s.client[i], Index: s.index[i],
		Price: s.price[i], TrueCost: s.trueCost[i], Theta: s.theta[i],
		Start: s.start[i], End: s.end[i], Rounds: s.rounds[i],
		CompTime: s.comp[i], CommTime: s.comm[i],
	}
}

// Bids materializes the whole set back into a fresh row-oriented slice —
// the exact slice CompileBids was built from. It is the bridge for
// consumers that still speak []Bid (the durable market's log encoding,
// diagnostics).
func (s *BidSet) Bids() []Bid {
	out := make([]Bid, s.n)
	for i := range out {
		out[i] = s.Bid(i)
	}
	return out
}

// siblings returns the indices of every bid sharing bid i's client,
// including i itself — the one-bid-per-client pruning set of Algorithm 2
// line 13. The returned slice aliases the set's index storage and must be
// treated as read-only.
func (s *BidSet) siblings(i int) []int {
	r := s.sibRow[i]
	return s.sibOrder[s.sibStart[r]:s.sibStart[r+1]]
}

// minTg is the columnar MinTg: T_0 = ⌈1/(1−θ_min)⌉ over the theta column,
// bit-identical to MinTg on the materialized rows.
func (s *BidSet) minTg() int {
	thetaMin := math.Inf(1)
	for _, th := range s.theta {
		thetaMin = math.Min(thetaMin, th)
	}
	if math.IsInf(thetaMin, 1) || thetaMin >= 1 {
		return 1
	}
	t0 := int(math.Ceil(1/(1-thetaMin) - 1e-9))
	if t0 < 1 {
		t0 = 1
	}
	return t0
}

// ValidateBidSet validates every bid of the set and the basic auction
// parameters. It is the columnar twin of ValidateBids: the same checks in
// the same order producing the same errors, scanning columns instead of
// rows, so the two paths accept and reject identical populations with
// identical messages.
func ValidateBidSet(s *BidSet, maxT, k int) error {
	if maxT < 1 {
		return fmt.Errorf("core: maximum global iterations T=%d must be ≥ 1", maxT)
	}
	if k < 1 {
		return fmt.Errorf("core: per-iteration coverage K=%d must be ≥ 1", k)
	}
	if s == nil || s.n == 0 {
		return ErrNoBids
	}
	for i := 0; i < s.n; i++ {
		for _, v := range [...]float64{s.price[i], s.trueCost[i], s.theta[i], s.comp[i], s.comm[i]} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("bid %s: non-finite field value %v", s.Bid(i), v)
			}
		}
		winLen := s.end[i] - s.start[i] + 1
		switch {
		case s.client[i] < 0:
			return fmt.Errorf("bid %s: negative client index", s.Bid(i))
		case s.price[i] <= 0:
			return fmt.Errorf("bid %s: price must be positive", s.Bid(i))
		case s.trueCost[i] < 0:
			return fmt.Errorf("bid %s: negative true cost", s.Bid(i))
		case s.theta[i] <= 0 || s.theta[i] >= 1:
			return fmt.Errorf("bid %s: θ must lie in (0,1)", s.Bid(i))
		case s.start[i] < 1 || s.end[i] > maxT || s.start[i] > s.end[i]:
			return fmt.Errorf("bid %s: window outside [1,%d]", s.Bid(i), maxT)
		case s.rounds[i] < 1 || s.rounds[i] > winLen:
			return fmt.Errorf("bid %s: rounds %d outside [1,%d]", s.Bid(i), s.rounds[i], winLen)
		case s.comp[i] < 0 || s.comm[i] < 0:
			return fmt.Errorf("bid %s: negative timing", s.Bid(i))
		}
	}
	return nil
}

// growI returns s resized to n, reusing capacity when possible.
func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
