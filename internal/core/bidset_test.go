package core_test

// Property tests for the columnar bid store. CompileBids promises an
// EXACT AoS↔SoA round trip — Bid(i) and Bids() reproduce the compiled
// rows field-for-field, including non-finite floats and out-of-range
// windows — and the set-accepting entry points (NewEngineSet,
// AcquireEngineSet, ReacquireEngineSet) promise bit-identical results to
// the []Bid entry points (NewEngine, Run). Both claims are locked here; FuzzCompileBids extends
// them to arbitrary byte-derived populations with a checked-in seed
// corpus (testdata/fuzz/FuzzCompileBids), and holds the shape-class index
// to a map-based reference on the same populations.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/workload"
)

// bidBitsEqual compares two bids field-for-field at the bit level: float
// fields via Float64bits so NaN payloads and signed zeros must survive
// the columnar round trip, not just compare ==.
func bidBitsEqual(a, b core.Bid) bool {
	ff := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Client == b.Client && a.Index == b.Index &&
		ff(a.Price, b.Price) && ff(a.TrueCost, b.TrueCost) && ff(a.Theta, b.Theta) &&
		a.Start == b.Start && a.End == b.End && a.Rounds == b.Rounds &&
		ff(a.CompTime, b.CompTime) && ff(a.CommTime, b.CommTime)
}

// roundTripCases mixes generated §VII-A populations with hand-built
// hostile rows: non-finite floats, inverted and out-of-range windows,
// negative everything, signed zeros. Validity is irrelevant to the round
// trip — CompileBids must preserve whatever it is given.
func roundTripCases(t *testing.T) map[string][]core.Bid {
	t.Helper()
	cases := map[string][]core.Bid{
		"empty": nil,
		"hostile": {
			{Client: -3, Index: 7, Price: math.NaN(), TrueCost: math.Inf(1), Theta: math.Inf(-1),
				Start: -5, End: -9, Rounds: -1, CompTime: math.Copysign(0, -1), CommTime: math.NaN()},
			{Client: 0, Index: 0},
			{Client: 1 << 30, Index: -1, Price: -1e308, TrueCost: 5e-324, Theta: 2,
				Start: 1 << 20, End: 0, Rounds: 1 << 10, CompTime: -7, CommTime: math.MaxFloat64},
		},
	}
	for seed := int64(1); seed <= 8; seed++ {
		p := workload.NewDefaultParams()
		p.Clients = 20 + int(seed)*13
		p.BidsPerUser = 1 + int(seed%4)
		p.Seed = seed
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cases[fmt.Sprintf("generated/seed%d", seed)] = bids
	}
	return cases
}

// TestCompileBidsRoundTrip locks the exactness contract of the columnar
// store: Bid(i) equals row i of the compiled slice bit-for-bit for every
// index, Bids() reproduces the whole slice, and Len matches.
func TestCompileBidsRoundTrip(t *testing.T) {
	for name, bids := range roundTripCases(t) {
		set := core.CompileBids(bids)
		if set.Len() != len(bids) {
			t.Fatalf("%s: Len = %d, compiled %d bids", name, set.Len(), len(bids))
		}
		for i := range bids {
			if got := set.Bid(i); !bidBitsEqual(got, bids[i]) {
				t.Fatalf("%s: Bid(%d) = %+v, compiled from %+v", name, i, got, bids[i])
			}
		}
		back := set.Bids()
		if len(back) != len(bids) {
			t.Fatalf("%s: Bids() returned %d rows, compiled %d", name, len(back), len(bids))
		}
		for i := range bids {
			if !bidBitsEqual(back[i], bids[i]) {
				t.Fatalf("%s: Bids()[%d] = %+v, compiled from %+v", name, i, back[i], bids[i])
			}
		}
	}
}

// TestValidateBidSetMatchesValidateBids holds the columnar validator to
// the row validator's exact behaviour: same accept/reject decision and
// the same error message on every population, valid or hostile.
func TestValidateBidSetMatchesValidateBids(t *testing.T) {
	for name, bids := range roundTripCases(t) {
		for _, dims := range [][2]int{{50, 20}, {12, 2}, {0, 1}, {5, 0}} {
			maxT, k := dims[0], dims[1]
			rowErr := core.ValidateBids(bids, maxT, k)
			setErr := core.ValidateBidSet(core.CompileBids(bids), maxT, k)
			if (rowErr == nil) != (setErr == nil) {
				t.Fatalf("%s T=%d K=%d: ValidateBids=%v, ValidateBidSet=%v", name, maxT, k, rowErr, setErr)
			}
			if rowErr != nil && rowErr.Error() != setErr.Error() {
				t.Fatalf("%s T=%d K=%d: error message diverged:\n rows: %v\n  set: %v", name, maxT, k, rowErr, setErr)
			}
		}
	}
}

// TestEngineSetPathsBitIdentical runs one population through every
// set-accepting construction path — NewEngineSet, AcquireEngineSet, the
// ReacquireEngineSet warm start (same set, same config: the context
// rebuild is skipped entirely) and a Reacquire rebind under a changed
// config — and holds each to reflect.DeepEqual against the []Bid twin,
// serial and over a worker pool.
func TestEngineSetPathsBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := workload.NewDefaultParams()
		p.Clients = 60 + int(seed)*17
		p.BidsPerUser = 1 + int(seed%3)
		p.Seed = 100 + seed
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := p.Config()
		rowEng, err := core.NewEngine(bids, cfg)
		if err != nil {
			t.Fatalf("seed %d: NewEngine: %v", seed, err)
		}
		want := sweepEngine(t, rowEng, core.RunOptions{})

		set := core.CompileBids(bids)
		setEng, err := core.NewEngineSet(set, cfg)
		if err != nil {
			t.Fatalf("seed %d: NewEngineSet: %v", seed, err)
		}
		if got := sweepEngine(t, setEng, core.RunOptions{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: NewEngineSet diverged from NewEngine", seed)
		}
		if got := sweepEngine(t, setEng, core.RunOptions{Workers: 4}); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: NewEngineSet over 4 workers diverged", seed)
		}

		pooled, err := core.AcquireEngineSet(set, cfg)
		if err != nil {
			t.Fatalf("seed %d: AcquireEngineSet: %v", seed, err)
		}
		if got := sweepEngine(t, pooled, core.RunOptions{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: AcquireEngineSet diverged", seed)
		}
		// Warm start: same set, equivalent config — the rebind must hand
		// back an engine that still reproduces the result exactly.
		warm, err := core.ReacquireEngineSet(pooled, set, cfg)
		if err != nil {
			t.Fatalf("seed %d: ReacquireEngineSet warm: %v", seed, err)
		}
		if got := sweepEngine(t, warm, core.RunOptions{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: warm-started engine diverged", seed)
		}
		// Changed config: the rebind must rebuild, not reuse, and the
		// result must match a cold engine under the new config.
		cfg2 := cfg
		cfg2.PaymentRule = core.RulePayBid
		rebound, err := core.ReacquireEngineSet(warm, set, cfg2)
		if err != nil {
			t.Fatalf("seed %d: ReacquireEngineSet rebind: %v", seed, err)
		}
		cold, err := core.NewEngineSet(set, cfg2)
		if err != nil {
			t.Fatalf("seed %d: NewEngineSet cfg2: %v", seed, err)
		}
		if got, want2 := sweepEngine(t, rebound, core.RunOptions{}), sweepEngine(t, cold, core.RunOptions{}); !reflect.DeepEqual(got, want2) {
			t.Fatalf("seed %d: rebound engine diverged from cold engine under new config", seed)
		}
		rebound.Release()
	}
}

// referenceClasses is the shape-class index built through a map:
// classes numbered in first-appearance order, each with its window shape
// and its member row sorted by (price, bid).
func referenceClasses(bids []core.Bid) (shapes [][3]int, rows [][]int) {
	ids := map[[3]int]int{}
	for i, b := range bids {
		sh := [3]int{b.Start, b.End, b.Rounds}
		c, ok := ids[sh]
		if !ok {
			c = len(shapes)
			ids[sh] = c
			shapes = append(shapes, sh)
			rows = append(rows, nil)
		}
		rows[c] = append(rows[c], i)
	}
	for _, row := range rows {
		slices.SortFunc(row, func(a, b int) int {
			switch pa, pb := bids[a].Price, bids[b].Price; {
			case pa < pb:
				return -1
			case pa > pb:
				return 1
			}
			return a - b
		})
	}
	return shapes, rows
}

// checkClassIndex holds the compiled population's shape-class index to
// referenceClasses: the class count, each class's shape in
// first-appearance order, its member row, and every bid's class and
// position in that row.
func checkClassIndex(t *testing.T, bids []core.Bid) {
	t.Helper()
	set := core.CompileBids(bids)
	shapes, rows := referenceClasses(bids)
	if n := set.ShapeClassCount(); n != len(shapes) {
		t.Fatalf("%d shape classes, reference has %d", n, len(shapes))
	}
	for c, sh := range shapes {
		if lo, hi, r := set.ShapeClass(c); [3]int{lo, hi, r} != sh {
			t.Fatalf("class %d has shape (%d, %d, %d), reference %v", c, lo, hi, r, sh)
		}
		if got := set.ShapeClassMembers(c); !slices.Equal(got, rows[c]) {
			t.Fatalf("class %d members %v, reference %v", c, got, rows[c])
		}
		for j, b := range rows[c] {
			if gc, gj := core.ClassPosition(set, b); gc != c || gj != j {
				t.Fatalf("bid %d sits at class %d position %d, reference class %d position %d", b, gc, gj, c, j)
			}
		}
	}
}

// widenShapes maps each window column through a wrapping multiplication
// by an odd constant: a bijection on the ints, so the classes stay the
// same while the values spread over the whole int range.
func widenShapes(bids []core.Bid) []core.Bid {
	out := slices.Clone(bids)
	for i := range out {
		out[i].Start = int(uint(out[i].Start) * 0x9E3779B97F4A7C15)
		out[i].End = int(uint(out[i].End) * 0xC2B2AE3D27D4EB4F)
		out[i].Rounds = int(uint(out[i].Rounds) * 0x165667B19E3779F9)
	}
	return out
}

// FuzzCompileBids drives arbitrary byte-derived populations through the
// columnar facade. Four invariants, each unconditional:
//
//   - the AoS↔SoA round trip is exact at the bit level, valid or not;
//   - the shape-class index matches the map-based reference
//     (referenceClasses), on the decoded columns and on the same columns
//     spread over the whole int range, valid or not;
//   - ValidateBidSet agrees with ValidateBids — same decision, same
//     message — on every population;
//   - populations both validators accept solve identically through the
//     row path (Run) and the set path (NewEngineSet), serial and
//     concurrent.
func FuzzCompileBids(f *testing.F) {
	f.Add([]byte{1, 16, 100, 9, 12, 3, 50, 50, 0}, uint8(12), uint8(2))
	f.Add([]byte{2, 16, 100, 12, 9, 3, 50, 50, 0, 3, 20, 90, 1, 6, 2, 10, 10, 1}, uint8(12), uint8(2))
	f.Add(make([]byte, 27), uint8(8), uint8(1))
	// Two shapes first seen out of sorted order, each with members out of
	// (price, bid) order and tied prices.
	f.Add([]byte{
		0, 60, 100, 28, 33, 3, 50, 50, 0,
		1, 40, 100, 18, 20, 2, 50, 50, 0,
		2, 20, 100, 28, 33, 3, 50, 50, 0,
		3, 40, 100, 18, 20, 2, 50, 50, 0,
		4, 60, 100, 28, 33, 3, 50, 50, 0,
	}, uint8(40), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, rawT, rawK uint8) {
		maxT := int(rawT%64) + 1
		k := int(rawK%8) + 1
		bids := fuzzDecodeBids(data, maxT)
		set := core.CompileBids(bids)
		if set.Len() != len(bids) {
			t.Fatalf("Len = %d, compiled %d bids", set.Len(), len(bids))
		}
		for i := range bids {
			if got := set.Bid(i); !bidBitsEqual(got, bids[i]) {
				t.Fatalf("Bid(%d) = %+v, compiled from %+v", i, got, bids[i])
			}
		}
		checkClassIndex(t, bids)
		checkClassIndex(t, widenShapes(bids))
		rowErr := core.ValidateBids(bids, maxT, k)
		setErr := core.ValidateBidSet(set, maxT, k)
		if (rowErr == nil) != (setErr == nil) {
			t.Fatalf("validators disagree: rows %v, set %v", rowErr, setErr)
		}
		if rowErr != nil {
			if rowErr.Error() != setErr.Error() {
				t.Fatalf("validator messages diverged:\n rows: %v\n  set: %v", rowErr, setErr)
			}
			return
		}
		cfg := core.Config{T: maxT, K: k}
		rows, err := core.Run(context.Background(), bids, cfg, core.RunOptions{})
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			return // ErrNoBids on empty populations
		}
		eng, err := core.NewEngineSet(set, cfg)
		if err != nil {
			t.Fatalf("NewEngineSet rejected a validated set: %v", err)
		}
		if got := sweepEngine(t, eng, core.RunOptions{}); !reflect.DeepEqual(rows, got) {
			t.Fatal("set path diverged from row path")
		}
		if got := sweepEngine(t, eng, core.RunOptions{Workers: 2}); !reflect.DeepEqual(rows, got) {
			t.Fatal("concurrent set path diverged from row path")
		}
	})
}
