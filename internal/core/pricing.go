package core

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/fedauction/afl/internal/obs"
)

// pricer bundles the per-worker state of an exact-critical pricing pass
// over one market: the market itself (fixed for the pricer's life), one
// pooled scratch arena serving every held-out greedy run, the
// ExcludeOwnBids qualification buffer, and the record of the winner
// being priced (see hold and wins). A pricer is single-goroutine state;
// concurrent workers each hold their own.
type pricer struct {
	set       *BidSet
	qualified []int
	tg        int
	cfg       Config
	base      []int

	sc *wdpScratch

	// The probe instance of the winner being priced: its bid and its
	// qualified set (qualified itself, or the sibling-pruned copy in qual
	// under ExcludeOwnBids).
	bid       int
	probeQual []int
	qual      []int
}

// heldStep is one selection step of a held-out run at which the held
// winner is still selectable: the entry the greedy selects without it
// (bid −1 when supply ran out), the winner's marginal utility r > 0, and
// the memo of whether the run covers the demand when the winner is
// selected at this step instead (0 unknown, 1 yes, −1 no).
type heldStep struct {
	sel      heapEntry
	r        int
	feasible int8
}

// newPricer returns a pricer for the market (set, qualified, tg, cfg,
// base) of one solve. Pair with release. The class heads are folded once
// here, over the market's whole qualified set, and the first held-out run
// orders them for every later one: all of them share the fold, T̂_g and
// base. Every probe instance's qualified set is a subset of the market's,
// and a head that starts early only underestimates (see validTop).
func newPricer(set *BidSet, qualified []int, tg int, cfg Config, base []int) *pricer {
	pr := &pricer{
		set: set, qualified: qualified, tg: tg, cfg: cfg, base: base,
		sc: acquireScratch(set, cfg, tg),
	}
	pr.sc.resetClasses(set, qualified, 0)
	return pr
}

// release returns the pricer's scratch arena to the pool.
func (pr *pricer) release() { releaseScratch(pr.sc) }

// hold prepares the probes of winner win: it fixes the probe instance and
// records the winner's held-out run. Under ExcludeOwnBids the instance
// drops the winner's sibling bids, so a multi-minded client cannot move
// its own critical value by re-pricing its other bids. (The shared
// sibling CSR may still list them; pruning a bid outside the qualified
// set is a no-op.)
func (pr *pricer) hold(win Winner) {
	pr.bid = win.BidIndex
	pr.probeQual = pr.qualified
	if pr.cfg.ExcludeOwnBids {
		if pr.qual == nil {
			pr.qual = make([]int, 0, len(pr.qualified))
		}
		q := pr.qual[:0]
		for _, idx := range pr.qualified {
			if idx == win.BidIndex || pr.set.client[idx] != win.Bid.Client {
				q = append(q, idx)
			}
		}
		pr.qual = q
		pr.probeQual = q
	}
	pr.sc.heldSteps = pr.sc.heldSteps[:0]
	pr.heldOut(-1)
}

// wins reports whether the held winner wins its probe instance with its
// price rewritten to price: what solveWDP on that instance would answer,
// without running it. popValidClass always returns the (key, bid)-argmin
// of the candidates, so the probe's greedy follows the held-out run
// until the first recorded step at which the winner's own entry sorts
// before the held-out selection, or supply ran out; the winner is
// selected there. From then on the run no longer reads the price, so
// whether it covers the demand depends on the step alone and is
// memoized. Without such a step the winner loses.
func (pr *pricer) wins(price float64) bool {
	for k := range pr.sc.heldSteps {
		s := &pr.sc.heldSteps[k]
		own := heapEntry{key: price / float64(s.r), bid: pr.bid}
		if s.sel.bid >= 0 && !own.before(s.sel) {
			continue
		}
		if s.feasible == 0 {
			s.feasible = -1
			if pr.heldOut(k) {
				s.feasible = 1
			}
		}
		return s.feasible > 0
	}
	return false
}

// heldOut runs the allocation-only greedy on the held winner's probe
// instance — the same qualified set and base coverage — with the winner
// held out of selection but kept in C, so its class marginal stays
// readable.
//
// With force < 0 it records the steps: one step per selection while the
// winner's client is still in C and its marginal utility is positive,
// ending when either stops holding (neither comes back), when supply
// runs out, or when the demand is covered. With force = k it selects the
// winner at step k in place of the held-out choice and reports whether
// the run then covers the demand.
func (pr *pricer) heldOut(force int) bool {
	w := pr.sc.begin(pr.set, pr.probeQual, pr.tg, pr.cfg, pr.base, pr.bid)
	heldCls := w.cls.classOf[pr.bid]
	// takeRep selects idx with its representative schedule.
	takeRep := func(idx int) {
		slots, _ := w.repSchedule(idx)
		w.take(idx, slots)
	}
	target := pr.cfg.K * pr.tg
	for k := 0; w.covered < target; k++ {
		if k == force {
			takeRep(pr.bid)
			continue
		}
		// The winner leaves C with the first selected sibling.
		if force < 0 && (!w.inC(pr.bid) || w.classMarginal(heldCls) == 0) {
			return false
		}
		ce, ok := w.popValidClass()
		if force < 0 {
			sel := ce.heapEntry
			if !ok {
				sel.bid = -1
			}
			pr.sc.heldSteps = append(pr.sc.heldSteps, heldStep{sel: sel, r: w.classMarginal(heldCls)})
		}
		if !ok {
			return false
		}
		takeRep(ce.bid)
		w.requeue(ce.cls)
	}
	return true
}

// priceWinners is the lazy payment stage: it applies cfg.PaymentRule to
// the winners of one already-solved WDP — the selected T̂_g of a sweep,
// or a repair's residual solve — instead of pricing every candidate T̂_g
// eagerly. RuleCritical is a no-op (Algorithm 3 payments are computed
// in-greedy); RulePayBid rewrites payments in place; RuleExactCritical
// fans the per-winner bisections of exactCriticalPayment over a clamped
// worker pool (the winners are independent markets-with-one-price-moved,
// so they parallelize perfectly) and emits obs pricing events.
//
// Payments are staged and committed only when every winner priced, so a
// canceled context returns an ErrCanceled-wrapping error with res
// untouched. workers follows the ClampWorkers convention; obsv/now follow
// the sweep convention (nil observer disables instrumentation entirely,
// nil now with a live observer selects time.Now).
func priceWinners(ctx context.Context, set *BidSet, qualified []int, tg int, cfg Config, base []int, res *WDPResult, workers int, obsv obs.Observer, now func() time.Time) error {
	if !res.Feasible || len(res.Winners) == 0 {
		return nil
	}
	switch cfg.PaymentRule {
	case RulePayBid:
		for i := range res.Winners {
			res.Winners[i].Payment = res.Winners[i].Bid.Price
		}
		return nil
	case RuleExactCritical:
		// The instrumented bisection stage below.
	default:
		return nil
	}
	n := len(res.Winners)
	workers = ClampWorkers(workers, n)
	var start time.Time
	if obsv != nil {
		if now == nil {
			now = time.Now
		}
		start = now()
		obsv.Observe(obs.Event{
			Kind: obs.EvPricingStarted, Tg: tg, Round: workers,
			Client: -1, Bid: -1, Value: float64(n),
		})
	}
	pays := make([]float64, n)
	if err := pricePar(ctx, set, qualified, tg, cfg, base, res.Winners, pays, workers, obsv, now); err != nil {
		if obsv != nil {
			obsv.Observe(obs.Event{
				Kind: obs.EvPricingDone, Tg: tg, Client: -1, Bid: -1,
				OK: false, Dur: now().Sub(start),
			})
		}
		return err
	}
	var total float64
	for i := range res.Winners {
		res.Winners[i].Payment = pays[i]
		total += pays[i]
	}
	if obsv != nil {
		obsv.Observe(obs.Event{
			Kind: obs.EvPricingDone, Tg: tg, Client: -1, Bid: -1,
			Value: total, OK: true, Dur: now().Sub(start),
		})
	}
	return nil
}

// pricePar fans the per-winner bisections over workers, the calling
// goroutine being the first: each worker holds one pricer and claims the
// next unpriced winner from a shared index, so one worker prices every
// winner inline in order and starts no goroutine. A canceled context
// stops every worker at its next claim or bisection probe, and no
// goroutine outlives the call. workers has already been clamped to
// [1, len(winners)]. Per-winner events arrive in worker completion order.
func pricePar(ctx context.Context, set *BidSet, qualified []int, tg int, cfg Config, base []int, winners []Winner, pays []float64, workers int, obsv obs.Observer, now func() time.Time) error {
	var next atomic.Int64
	FanOut(workers, func(int) {
		pr := newPricer(set, qualified, tg, cfg, base)
		defer pr.release()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(winners) || ctx.Err() != nil {
				return
			}
			var t0 time.Time
			if obsv != nil {
				t0 = now()
			}
			pay, probes, err := exactCriticalPayment(ctx, pr, winners[i])
			if err != nil {
				return // canceled mid-bisection, reported once below
			}
			pays[i] = pay
			if obsv != nil {
				obsv.Observe(obs.Event{
					Kind: obs.EvWinnerPriced, Tg: tg, Round: probes,
					Client: winners[i].Bid.Client, Bid: winners[i].BidIndex,
					Value: pay, OK: true, Dur: now().Sub(t0),
				})
			}
		}
	})
	if ctx.Err() != nil {
		return canceledErr(ctx)
	}
	return nil
}
