package core_test

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/workload"
)

// TestWinnerSlicesAppendSafe locks in the safety contract of the
// copied-out winner schedules: the Winner records of one WDP share one
// backing array, so every escaping slice must have capacity clamped to
// its length — an append on one winner's Slots must copy out rather
// than stomp the next winner's data.
func TestWinnerSlicesAppendSafe(t *testing.T) {
	bids, cfg := poolWorkload(t, 77, 60, 12, 3)
	res := sweep(t, bids, cfg, core.RunOptions{})
	if !res.Feasible || len(res.Winners) < 2 {
		t.Fatalf("workload not discriminating: feasible=%v winners=%d",
			res.Feasible, len(res.Winners))
	}
	snapshot := make([][]int, len(res.Winners))
	for i, w := range res.Winners {
		if cap(w.Slots) != len(w.Slots) {
			t.Errorf("winner %d: Slots capacity %d exceeds length %d", i, cap(w.Slots), len(w.Slots))
		}
		snapshot[i] = append([]int(nil), w.Slots...)
	}
	for _, w := range res.Winners {
		_ = append(w.Slots, -1) // must copy out, not write the shared array
	}
	for i, w := range res.Winners {
		if !reflect.DeepEqual(snapshot[i], w.Slots) {
			t.Fatalf("winner %d: Slots mutated by an append on a sibling slice", i)
		}
	}
}

// TestKeptWinnersRetainOnlyOwnSchedules bounds what a kept winner list
// holds alive: its own records and schedules, not schedule memory shared
// with the other WDPs and auctions that the pooled arenas served. It
// solves 256 small populations, keeps the Winners of every 16th Result,
// and compares the live heap with and without the kept lists.
func TestKeptWinnersRetainOnlyOwnSchedules(t *testing.T) {
	const auctions, every = 256, 16
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	kept := make([][]core.Winner, 0, auctions/every)
	for i := 0; i < auctions; i++ {
		bids, cfg := poolWorkload(t, int64(i+1), 60, 12, 3)
		res := sweep(t, bids, cfg, core.RunOptions{})
		if i%every == 0 {
			kept = append(kept, res.Winners)
		}
	}
	// Each kept list's own memory: its records, their Slots and at most
	// as many covered slots again.
	var own int64
	for _, ws := range kept {
		if len(ws) == 0 {
			t.Fatal("workload not discriminating: a kept auction has no winners")
		}
		own += int64(cap(ws)) * int64(reflect.TypeFor[core.Winner]().Size())
		for _, w := range ws {
			own += 2 * int64(len(w.Slots)) * int64(reflect.TypeFor[int]().Size())
		}
	}
	with := live()
	runtime.KeepAlive(kept)
	kept = nil
	retained := with - live()
	t.Logf("kept lists retain %d B, %d B each; their own memory is %d B", retained, retained/(auctions/every), own)
	if limit := 2 * own; retained > limit {
		t.Fatalf("kept winner lists retain %d B, more than twice their own %d B", retained, own)
	}
}

// TestSolveAllocGuardWarmPool holds a solve's allocation count to a
// constant of the population. Back-to-back solves of one 2000×5
// population — compiled once, two workers, exact-critical pricing,
// GOMAXPROCS 1 — with the collector off, so no cycle empties the pools
// between them, must allocate the same number of objects each: the
// arenas they draw are sized for the population and horizon when
// acquired, whichever segments and pricers those arenas served before.
func TestSolveAllocGuardWarmPool(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool.Put drops a random share of arenas")
	}
	p := workload.NewDefaultParams()
	p.Clients, p.BidsPerUser = 2000, 5
	bids, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	cfg.PaymentRule = core.RuleExactCritical
	set := core.CompileBids(bids)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	solve := func() {
		eng, err := core.NewEngineSet(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunCtx(context.Background(), core.RunOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	// Two collections empty the pools; a first solve records the
	// population's run capacities; priming then leaves two arenas sized
	// to them.
	runtime.GC()
	runtime.GC()
	solve()
	core.PrimeScratch(set, cfg, 2)
	solve()
	counts := make([]uint64, 8)
	var ms runtime.MemStats
	for i := range counts {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		solve()
		runtime.ReadMemStats(&ms)
		counts[i] = ms.Mallocs - before
	}
	if slices.Min(counts) != slices.Max(counts) {
		t.Fatalf("back-to-back solves on a warm pool allocate %v objects; want one count", counts)
	}
}
