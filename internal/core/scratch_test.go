package core_test

import (
	"reflect"
	"testing"

	"github.com/fedauction/afl/internal/core"
)

// TestWinnerSlicesAppendSafe locks in the safety contract of the
// slab-backed winner schedules: neighbouring Winner records share one
// backing chunk, so every escaping slice must have capacity clamped to
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
		_ = append(w.Slots, -1) // must copy out, not write the shared chunk
	}
	for i, w := range res.Winners {
		if !reflect.DeepEqual(snapshot[i], w.Slots) {
			t.Fatalf("winner %d: Slots mutated by an append on a sibling slice", i)
		}
	}
}
