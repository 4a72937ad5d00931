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
	"reflect"
	"strings"
	"testing"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden digests in testdata")

// goldenPaymentsFile holds the SHA-256 of every exact-critical payment the
// differential workloads produce (see TestExactCriticalPaymentsGolden).
var goldenPaymentsFile = filepath.Join("testdata", "exact_critical_payments.sha256")

// goldenEntryPointsFile holds the SHA-256 of the full outputs of every
// single-WDP entry point over the same workloads (see
// TestWDPEntryPointsGolden).
var goldenEntryPointsFile = filepath.Join("testdata", "wdp_entry_points.sha256")

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
	checkGoldenDigest(t, goldenPaymentsFile, h, fmt.Sprintf("exact-critical payments over %d priced winners", priced))
}

// checkGoldenDigest compares h's digest with the one recorded in file, or
// rewrites the file under -update-golden. what names the pinned outputs
// in the failure message.
func checkGoldenDigest(t *testing.T, file string, h hash.Hash, what string) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	if *updateGolden {
		if err := os.WriteFile(file, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read golden digest: %v", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("%s moved: digest %s, golden %s", what, got, strings.TrimSpace(string(want)))
	}
}

// completionMarket is the residual market of an LP-rounded cover's greedy
// completion: the first half of res's winners pre-committed as base
// coverage, and their clients' bids removed from the qualified set at
// res.Tg.
func completionMarket(bids []core.Bid, res core.Result, cfg core.Config) (qualified, base []int, ok bool) {
	if !res.Feasible || len(res.Winners) < 2 {
		return nil, nil, false
	}
	base = make([]int, res.Tg)
	used := map[int]bool{}
	for _, w := range res.Winners[:len(res.Winners)/2] {
		used[w.Bid.Client] = true
		for _, s := range w.Slots {
			base[s-1]++
		}
	}
	for _, idx := range core.Qualified(bids, res.Tg, cfg) {
		if !used[bids[idx].Client] {
			qualified = append(qualified, idx)
		}
	}
	return qualified, base, true
}

// TestWDPEntryPointsGolden pins the full output (%#v of its digest
// projection: winners, schedules, payments, costs, rounds and the dual's
// scalars, unexported fields included) of every way to solve one WDP
// outside the sweep, bit for bit:
// the row SolveWDP at every T̂_g in [1, T], Engine.RepairCtx on the
// residual market of repairRequest, and SolveWDPBase on an LP-rounding
// completion market (completionMarket). The sweep's own Result is folded
// in as well. It covers the harness workloads under every golden variant,
// each under RuleCritical and RuleExactCritical.
//
// Regenerate with -update-golden only for a change that is meant to
// move these outputs, and say so in the change description.
func TestWDPEntryPointsGolden(t *testing.T) {
	cases := append(generatedCases(t), degenerateCases()...)
	h := sha256.New()
	outputs := 0
	emit := func(label string, v any) {
		fmt.Fprintf(h, "%s %#v\n", label, v)
		outputs++
	}
	checkDigestFields(t)
	for _, tc := range cases {
		for i, variant := range goldenVariants(tc) {
			for _, rule := range []core.PaymentRule{core.RuleCritical, core.RuleExactCritical} {
				cfg := variant
				cfg.PaymentRule = rule
				label := fmt.Sprintf("%s/v%d/%s", tc.name, i, rule)
				for tg := 1; tg <= cfg.T; tg++ {
					emit(fmt.Sprintf("%s/tg%d", label, tg), digestWDP(core.SolveWDP(tc.bids, core.Qualified(tc.bids, tg, cfg), tg, cfg)))
				}
				eng, err := core.NewEngine(tc.bids, cfg)
				if err != nil {
					t.Fatalf("%s: NewEngine: %v", label, err)
				}
				res := sweepEngine(t, eng, core.RunOptions{})
				emit(label+"/sweep", digestResult(res))
				if req, ok := repairRequest(res, cfg.K); ok {
					rep, err := eng.RepairCtx(context.Background(), req, core.RunOptions{})
					if err != nil {
						t.Fatalf("%s: RepairCtx: %v", label, err)
					}
					emit(label+"/repair", rep)
				}
				if qual, base, ok := completionMarket(tc.bids, res, cfg); ok {
					emit(label+"/completion", digestWDP(core.SolveWDPBase(tc.bids, qual, res.Tg, cfg, base)))
				}
			}
		}
	}
	checkGoldenDigest(t, goldenEntryPointsFile, h, fmt.Sprintf("single-WDP entry-point outputs (%d pinned)", outputs))
}

// goldenResults10kFile holds the SHA-256 of the full Results of
// TestFullResultGolden10k.
var goldenResults10kFile = filepath.Join("testdata", "full_results_10k.sha256")

// TestFullResultGolden10k pins the complete Result (%#v of its digest
// projection: every WDP, its winners, schedules, payments and the dual's
// scalars, unexported fields included) of three 10⁴-bid populations of
// the perfbench solve-10k shape — 2000 clients × 5 bids, T = 50, K = 20,
// seeded by perfbench's formula — bit for bit. Unlike
// TestDifferentialColumnar10kVsSeed the bids are multi-minded, so winners
// leave unselected siblings in the grand set and ExcludeOwnBids prunes
// the pricing instances. Each population runs under RuleCritical and
// RuleExactCritical, at one worker and at two.
//
// Regenerate with -update-golden only for a change that is meant to
// move these outputs, and say so in the change description.
func TestFullResultGolden10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-bid golden digest skipped under -short")
	}
	checkDigestFields(t)
	h := sha256.New()
	for j := int64(0); j < 3; j++ {
		p := workload.NewDefaultParams()
		p.Clients, p.BidsPerUser = 2000, 5
		p.Seed = 1*1_000_003 + j
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		set := core.CompileBids(bids)
		for _, rule := range []core.PaymentRule{core.RuleCritical, core.RuleExactCritical} {
			cfg := p.Config()
			cfg.PaymentRule = rule
			cfg.ExcludeOwnBids = true
			eng, err := core.NewEngineSet(set, cfg)
			if err != nil {
				t.Fatalf("pop %d/%s: NewEngineSet: %v", j, rule, err)
			}
			res := sweepEngine(t, eng, core.RunOptions{})
			if !res.Feasible {
				t.Fatalf("pop %d/%s: infeasible; the fixture needs winners", j, rule)
			}
			if w2 := sweepEngine(t, eng, core.RunOptions{Workers: 2}); !reflect.DeepEqual(res, w2) {
				t.Fatalf("pop %d/%s: two workers diverged from one", j, rule)
			}
			fmt.Fprintf(h, "pop%d/%s %#v\n", j, rule, digestResult(res))
		}
	}
	checkGoldenDigest(t, goldenResults10kFile, h, "full 10⁴-bid Results")
}

// dualDigest is what the digests print of a core.Dual: its scalars, by
// name. The digests never print the Dual struct itself, so they pin what
// the certificate reports and not which vectors the struct stores.
type dualDigest struct {
	Tg                                                       int
	Omega, HarmonicTg, Objective, TightObjective, RatioBound float64
}

func digestDual(d core.Dual) dualDigest {
	return dualDigest{d.Tg, d.Omega, d.HarmonicTg, d.Objective, d.TightObjective, d.RatioBound}
}

// wdpDigest is what the digests print of a core.WDPResult: each of its
// fields, in order, with the dual's scalars in place of its Dual.
type wdpDigest struct {
	Tg       int
	Feasible bool
	Cost     float64
	Winners  []core.Winner
	Dual     dualDigest
	Rounds   int
	Skipped  bool
}

func digestWDP(w core.WDPResult) wdpDigest {
	return wdpDigest{w.Tg, w.Feasible, w.Cost, w.Winners, digestDual(w.Dual), w.Rounds, w.Skipped}
}

// resultDigest is the same projection of a core.Result.
type resultDigest struct {
	Feasible bool
	Tg       int
	Cost     float64
	Winners  []core.Winner
	Dual     dualDigest
	WDPs     []wdpDigest
	Cert     *core.Certificate
}

func digestResult(r core.Result) resultDigest {
	wdps := make([]wdpDigest, len(r.WDPs))
	for i, w := range r.WDPs {
		wdps[i] = digestWDP(w)
	}
	return resultDigest{r.Feasible, r.Tg, r.Cost, r.Winners, digestDual(r.Dual), wdps, r.Cert}
}

// checkDigestFields fails the test unless each digest projection lists
// the fields of the type it projects, by name and in order, so that a
// field added to a Result cannot slip out of the digests unnoticed.
func checkDigestFields(t *testing.T) {
	t.Helper()
	for _, p := range [][2]reflect.Type{
		{reflect.TypeFor[core.WDPResult](), reflect.TypeFor[wdpDigest]()},
		{reflect.TypeFor[core.Result](), reflect.TypeFor[resultDigest]()},
	} {
		var have, want []string
		for i := 0; i < p[0].NumField(); i++ {
			have = append(have, p[0].Field(i).Name)
		}
		for i := 0; i < p[1].NumField(); i++ {
			want = append(want, p[1].Field(i).Name)
		}
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("%v has fields %v, its digest projection %v", p[0], have, want)
		}
	}
}
