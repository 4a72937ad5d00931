package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"github.com/fedauction/afl/internal/obs"
)

// RunOptions configures one execution of the A_FL sweep. The zero value
// runs sequentially and uninstrumented.
type RunOptions struct {
	// Workers selects the fan-out of the independent per-T̂_g
	// winner-determination solves and, under RuleExactCritical, of the
	// per-winner pricing bisections on the selected T̂_g: 0 or 1 runs
	// inline on the calling goroutine; n > 1 uses n workers (clamped to
	// the number of tasks of each stage); n < 0 selects GOMAXPROCS.
	// Every setting returns bit-identical results.
	Workers int
	// Observer receives structured phase events (sweep start, per-T̂_g
	// solves, the exact-critical pricing stage, winners, payments,
	// completion). Nil disables instrumentation entirely: the hot path
	// then performs no timing calls and no additional allocations. With
	// Workers > 1 the observer must be safe for concurrent use and
	// per-T̂_g / per-winner events arrive in worker completion order.
	Observer obs.Observer
	// Now supplies timestamps for phase latencies. Nil selects time.Now.
	// Ignored when Observer is nil; inject a deterministic source for
	// golden-testing traces.
	Now func() time.Time
	// Solver selects the sweep strategy (see Solver). The zero value is
	// the exact enumeration; the approximate tiers skip candidates and
	// attach a Certificate to the result. Approximate sweeps run their
	// candidate walk sequentially — the coarse set is chosen online from
	// preceding solves — but Workers still fans out the pricing stage.
	Solver Solver
	// Stride is the base coarse stride of the approximate tiers: solve
	// every Stride-th candidate, adapting to the observed cost curvature.
	// Zero selects the default (4). Stride 1 solves every candidate —
	// bit-identical to the exact sweep, with a certificate attached.
	Stride int
	// LP is the column-generation hook of SolverLPRound. Nil degrades
	// that tier to SolverCoarseFine's certificate; the facade, batch
	// scheduler and market daemon always install the colgen implementation.
	LP LPCertifier
}

// ClampWorkers is the single place worker counts are validated: negative
// requests select GOMAXPROCS, and the result is clamped to [1, tasks] so
// a pool never spawns more goroutines than it has tasks. The sweep, the
// pricing stage and the cross-auction batch scheduler all resolve their
// widths through it.
func ClampWorkers(workers, tasks int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// FanOut runs work(0) … work(workers-1) concurrently and returns when
// every call has returned; workers must be at least 1, which ClampWorkers
// guarantees. work(0) runs on the calling goroutine, so a one-worker
// fan-out starts no goroutine. It is the one worker loop of every
// fan-out — the sweep's segments, the pricing stage's winners, the batch
// scheduler's shards and the experiment trials — which differ only in
// how a worker claims its tasks.
func FanOut(workers int, work func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// sweep executes the full T̂_g enumeration honoring ctx and opts. It is
// the one implementation behind Engine.RunCtx. A nil error means
// the sweep ran to completion (the result may still be infeasible); the
// only error is cancellation, in which case partial work is abandoned
// and an ErrCanceled-wrapping error is returned.
func (ax *auctionContext) sweep(ctx context.Context, o RunOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	obsv := o.Observer
	now := o.Now
	if obsv != nil && now == nil {
		now = time.Now
	}
	var start time.Time
	if obsv != nil {
		start = now()
		obsv.Observe(obs.Event{
			Kind: obs.EvAuctionStarted, Tg: ax.cfg.T, Round: ax.t0,
			Client: -1, Bid: -1, Value: float64(ax.set.n),
		})
	}
	res := Result{}
	if n := ax.cfg.T - ax.t0 + 1; n > 0 {
		var err error
		if o.Solver != SolverExact {
			err = ax.sweepApprox(ctx, &res, o, obsv, now)
		} else {
			err = ax.sweepPar(ctx, &res, ClampWorkers(o.Workers, n), obsv, now)
		}
		if err != nil {
			return Result{}, err
		}
	}
	if err := ax.priceChosen(ctx, &res, o.Workers, obsv, now); err != nil {
		return Result{}, err
	}
	if obsv != nil {
		for _, w := range res.Winners {
			obsv.Observe(obs.Event{
				Kind: obs.EvWinnerAccepted, Tg: res.Tg, Client: w.Bid.Client,
				Bid: w.BidIndex, Value: w.Bid.Price, OK: true,
			})
			obsv.Observe(obs.Event{
				Kind: obs.EvPaymentComputed, Tg: res.Tg, Client: w.Bid.Client,
				Bid: w.BidIndex, Value: w.Payment, OK: true,
			})
		}
		obsv.Observe(obs.Event{
			Kind: obs.EvAuctionDone, Tg: res.Tg, Client: -1, Bid: -1,
			Value: res.Cost, OK: res.Feasible, Dur: now().Sub(start),
		})
	}
	return res, nil
}

// priceChosen is the sweep's lazy payment stage: it applies the payment
// rule to the winners of the selected T̂_g only, after the enumeration
// picked the argmin. Non-selected entries of res.WDPs keep the Algorithm 3
// payments solveWDP computed in-greedy. res.Winners aliases the chosen
// WDP's winner slice, so committing payments through the WDP updates both
// views. Pricing fans out over the same worker budget as the sweep.
func (ax *auctionContext) priceChosen(ctx context.Context, res *Result, workers int, obsv obs.Observer, now func() time.Time) error {
	if !res.Feasible {
		return nil
	}
	wdp := &res.WDPs[res.Tg-ax.t0]
	return priceWinners(ctx, ax.set, ax.qualifiedAt(res.Tg), res.Tg, ax.cfg, nil, wdp, workers, obsv, now)
}

// sweepSegment solves the contiguous candidate range T̂_g ∈ [lo, hi] into
// out[0 : hi-lo+1], with out[tg-lo] receiving the solve for tg. It is the
// unit of work of the sharded sweep (one segment per worker, see
// sweepPar). Each segment owns one pooled scratch arena — no state is
// shared between concurrent segments except the read-only context and
// disjoint halves of out, so there is nothing to false-share.
//
// Under the paper's least-covered rule the segment maintains the ψ_max
// column incrementally across its ascending T̂_g: extending the horizon
// by one slot adds column maxima only for the new slot (its CSR row,
// filtered to already-qualified bids) and for the windows of the bids
// entering at the new T̂_g. Both updates may overlap; max is idempotent
// and order-independent, so the column is bit-identical to the per-solve
// accumulation it replaces, at amortized O(row + entrant windows) instead
// of O(Σ qualified windows) per T̂_g. Under ScheduleEarliest the
// per-solve accumulation is kept. The class heads of the class-based
// selection (each touched class's first qualified member) are carried the
// same way under either rule: qualified sets only grow, so each T̂_g
// folds in only its entrants.
//
// Cancellation is checked between solves, so a canceled context abandons
// the remaining candidates without tearing down a solve midway.
func (ax *auctionContext) sweepSegment(ctx context.Context, lo, hi int, out []WDPResult, obsv obs.Observer, now func() time.Time) error {
	return ax.sweepSegmentMask(ctx, lo, hi, out, nil, obsv, now)
}

// sweepSegmentMask is sweepSegment with a candidate filter: pick(tg)
// decides, per ascending candidate, whether the WDP at tg is solved or
// skipped. The ψ_max column is maintained across EVERY candidate of the
// range — maintenance is O(slot row + entrant windows) per step, far
// cheaper than a solve — so the solves that do run are bit-identical to
// the ones the unmasked sweep would have produced at the same tg. A
// skipped candidate leaves (or installs) a Skipped placeholder in out;
// an entry already carrying a solve from a previous pass is never
// overwritten by a skip, which is what lets the approximate tiers
// re-walk a range to refine only its unsolved candidates. nil pick
// solves everything — the exact sweep.
func (ax *auctionContext) sweepSegmentMask(ctx context.Context, lo, hi int, out []WDPResult, pick func(tg int) bool, obsv obs.Observer, now func() time.Time) error {
	set := ax.set
	sc := acquireScratch(set.n, hi)
	defer releaseScratch(sc)
	// The sweep's solves share one compile-time class index (classsel.go),
	// built once per population (concurrent segments share it through the
	// holder's Once) and reused by every auction warm-started on the same
	// BidSet. The class heads are carried across the segment like the ψ
	// column: folded over everything qualified at lo, then over each later
	// T̂_g's entrants (see foldClasses).
	cls := set.classes()
	sc.resetClasses(cls, ax.qualifiedAt(lo))
	var psi []float64
	if ax.cfg.ScheduleRule == ScheduleLeastCovered {
		// Seed the column for the segment's first horizon: ψ over the
		// clipped windows of everything qualified at lo.
		psi = sc.sweepPsi[:hi]
		for t := range psi[:lo] {
			psi[t] = 0
		}
		for _, idx := range ax.qualifiedAt(lo) {
			p := set.price[idx]
			wlo, whi := set.start[idx], set.end[idx]
			if whi > lo {
				whi = lo
			}
			for t := wlo; t <= whi; t++ {
				if p > psi[t-1] {
					psi[t-1] = p
				}
			}
		}
	}
	for tg := lo; tg <= hi; tg++ {
		if tg > lo {
			entrants := ax.qualOrder[ax.qualCount[tg-1]:ax.qualCount[tg]]
			if psi != nil {
				// New slot tg: its maximum over already-qualified bids
				// comes from the precomputed CSR row, filtered by entry
				// point.
				psi[tg-1] = 0
				for _, idx := range ax.slotRow(tg) {
					if ax.enterTg[idx] <= tg {
						if p := set.price[idx]; p > psi[tg-1] {
							psi[tg-1] = p
						}
					}
				}
				// Bids entering at tg: fold their clipped windows in.
				for _, idx := range entrants {
					p := set.price[idx]
					wlo, whi := set.start[idx], set.end[idx]
					if whi > tg {
						whi = tg
					}
					for t := wlo; t <= whi; t++ {
						if p > psi[t-1] {
							psi[t-1] = p
						}
					}
				}
			}
			sc.foldClasses(cls, entrants)
		}
		if ctx.Err() != nil {
			return canceledErr(ctx)
		}
		if pick != nil && !pick(tg) {
			if out[tg-lo].Tg == 0 {
				out[tg-lo] = WDPResult{Tg: tg, Skipped: true}
			}
			continue
		}
		var t0 time.Time
		if obsv != nil {
			t0 = now()
		}
		wdp := solveWDP(set, ax.qualifiedAt(tg), tg, ax.cfg, sc, nil, psi)
		if obsv != nil {
			obsv.Observe(obs.Event{
				Kind: obs.EvWDPSolved, Tg: tg, Client: -1, Bid: -1,
				Value: wdp.Cost, OK: wdp.Feasible, Dur: now().Sub(t0),
			})
		}
		out[tg-lo] = wdp
	}
	return nil
}

// reduceWDPs installs the per-T̂_g results and selects the argmin-cost
// feasible candidate, scanning in ascending T̂_g order so ties keep the
// smallest T̂_g.
func reduceWDPs(res *Result, wdps []WDPResult) {
	res.WDPs = wdps
	for i := range wdps {
		wdp := &wdps[i]
		if !wdp.Feasible {
			continue
		}
		if !res.Feasible || wdp.Cost < res.Cost {
			res.Feasible = true
			res.Tg = wdp.Tg
			res.Cost = wdp.Cost
			res.Winners = wdp.Winners
			res.Dual = wdp.Dual
		}
	}
}
