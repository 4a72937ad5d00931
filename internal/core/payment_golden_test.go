package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fedauction/afl/internal/core"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the exact-critical payment digest in testdata")

// goldenPaymentsFile holds the SHA-256 of every exact-critical payment the
// differential workloads produce (see TestExactCriticalPaymentsGolden).
var goldenPaymentsFile = filepath.Join("testdata", "exact_critical_payments.sha256")

// goldenVariants crosses the harness workloads with the knobs that change
// what a pricing probe sees: sibling pruning, a reserve cap and the
// earliest-fit schedule rule.
func goldenVariants(tc diffCase) []core.Config {
	var reserve float64
	for _, b := range tc.bids {
		reserve = math.Max(reserve, b.Price)
	}
	// 0.8 of the top price both disqualifies the dearest bids and caps
	// essential winners at a bid-independent value.
	reserve *= 0.8
	var out []core.Config
	for _, exclude := range []bool{false, true} {
		for _, res := range []float64{0, reserve} {
			for _, sched := range []core.ScheduleRule{core.ScheduleLeastCovered, core.ScheduleEarliest} {
				cfg := tc.cfg
				cfg.PaymentRule = core.RuleExactCritical
				cfg.ExcludeOwnBids = exclude
				cfg.ReservePrice = res
				cfg.ScheduleRule = sched
				out = append(out, cfg)
			}
		}
	}
	return out
}

// hashWinners folds one priced outcome into h: its label, then each
// winner's bid index, schedule and the exact bits of its payment.
func hashWinners(h hash.Hash, label string, feasible bool, winners []core.Winner) {
	fmt.Fprintf(h, "%s feasible=%v n=%d\n", label, feasible, len(winners))
	for _, w := range winners {
		fmt.Fprintf(h, "%d %v %016x\n", w.BidIndex, w.Slots, math.Float64bits(w.Payment))
	}
}

// repairRequest drops the first winner of res at its first round and
// asks for the residual cover: history satisfied, surviving winners'
// later slots pre-committed, every winner barred from promotion.
func repairRequest(res core.Result, k int) (core.RepairRequest, bool) {
	if !res.Feasible || len(res.Winners) < 2 {
		return core.RepairRequest{}, false
	}
	detect := res.Winners[0].Slots[0]
	base := make([]int, res.Tg)
	for i := 0; i < detect-1; i++ {
		base[i] = k
	}
	exclude := map[int]bool{}
	for i, w := range res.Winners {
		exclude[w.Bid.Client] = true
		if i == 0 {
			continue
		}
		for _, s := range w.Slots {
			if s >= detect {
				base[s-1]++
			}
		}
	}
	return core.RepairRequest{Tg: res.Tg, From: detect, Base: base, Exclude: exclude}, true
}

// TestExactCriticalPaymentsGolden pins RuleExactCritical payments bit for
// bit. The differential suite compares them to the frozen oracle within
// 1e-9, which a payment moving in its last bit passes; this digest does
// not. It covers the harness workloads under every combination of
// ExcludeOwnBids, a reserve price and ScheduleEarliest, plus the residual
// market Engine.RepairCtx prices after the first winner drops out.
//
// Regenerate with -update-golden only for a change that is meant to
// move payments, and say so in the change description.
func TestExactCriticalPaymentsGolden(t *testing.T) {
	cases := append(generatedCases(t), degenerateCases()...)
	h := sha256.New()
	priced := 0
	for _, tc := range cases {
		for i, cfg := range goldenVariants(tc) {
			label := fmt.Sprintf("%s/v%d", tc.name, i)
			eng, err := core.NewEngine(tc.bids, cfg)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", label, err)
			}
			res := sweepEngine(t, eng, core.RunOptions{})
			hashWinners(h, label, res.Feasible, res.Winners)
			priced += len(res.Winners)
			req, ok := repairRequest(res, cfg.K)
			if !ok {
				continue
			}
			rep, err := eng.RepairCtx(context.Background(), req, core.RunOptions{})
			if err != nil {
				t.Fatalf("%s: RepairCtx: %v", label, err)
			}
			hashWinners(h, label+"/repair", rep.Feasible, rep.Winners)
			priced += len(rep.Winners)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if *updateGolden {
		if err := os.WriteFile(goldenPaymentsFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPaymentsFile)
	if err != nil {
		t.Fatalf("read golden digest: %v", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("exact-critical payments over %d priced winners moved: digest %s, golden %s", priced, got, strings.TrimSpace(string(want)))
	}
}
