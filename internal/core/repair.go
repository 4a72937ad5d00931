package core

import (
	"context"
	"fmt"
	"time"

	"github.com/fedauction/afl/internal/obs"
)

// RepairRequest describes a mid-session coverage repair: some winners
// dropped out after iterations already ran, and the caller wants the
// missing per-iteration coverage bought back from the losing bids.
type RepairRequest struct {
	// Tg is the session's committed number of global iterations (the
	// T̂_g the original auction selected). Must lie in [1, cfg.T].
	Tg int
	// From is the first iteration (1-based) replacements may serve.
	// Iterations before From are history; the caller should mark them
	// satisfied in Base (≥ K), since no replacement can re-run them.
	From int
	// Base[t-1] is the coverage iteration t already has from surviving
	// winners. Length must be Tg; entries must be non-negative.
	Base []int
	// Exclude bars clients from promotion: current and former winners
	// (they are already committed or already failed) and any client the
	// caller no longer trusts.
	Exclude map[int]bool
}

// RepairResult is the outcome of Engine.RepairCtx.
type RepairResult struct {
	// Feasible reports whether a replacement set restoring full coverage
	// K on every iteration in [From, Tg] exists.
	Feasible bool
	// Cost is the total claimed price of the promoted schedules.
	Cost float64
	// Winners are the promoted replacements. BidIndex refers to the
	// engine's original bid slice; Bid carries the residual window that
	// was actually awarded (clamped to [From, Tg]); Slots ⊆ [From, Tg];
	// Payment is the critical value in the residual market, so the
	// re-award inherits the truthfulness of the original mechanism.
	Winners []Winner
	// Deficit lists the iterations (1-based, ≥ From) short of K under
	// Base alone — the rounds that run under-covered when no repair
	// exists.
	Deficit []int
}

// RepairCtx runs a critical-value-consistent re-award on the residual
// market left by mid-session dropouts. It clamps every non-excluded
// bid's availability window to [From, Tg], re-qualifies the clamped
// population, and solves the winner-determination problem with the
// surviving coverage pre-committed, so the greedy buys exactly the
// missing coverage at minimum average cost and pays critical values in
// that residual market. Under RuleExactCritical the residual solve's
// payments go through the same lazy pricing stage as the sweep (fanned
// over opts.Workers, canceled mid-bisection with an ErrCanceled-wrapping
// error, reported through the pricing events); opts.Observer also
// receives the repair events. The engine's bid slice and shared context
// are never mutated; RepairCtx is safe for concurrent use like every
// other Engine method.
func (e *Engine) RepairCtx(ctx context.Context, req RepairRequest, opts RunOptions) (RepairResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := e.ax.cfg
	set := e.ax.set
	if req.Tg < 1 || req.Tg > cfg.T {
		return RepairResult{}, fmt.Errorf("core: repair Tg=%d outside [1,%d]", req.Tg, cfg.T)
	}
	if req.From < 1 || req.From > req.Tg {
		return RepairResult{}, fmt.Errorf("core: repair From=%d outside [1,%d]", req.From, req.Tg)
	}
	if len(req.Base) != req.Tg {
		return RepairResult{}, fmt.Errorf("core: repair base has %d entries, want %d", len(req.Base), req.Tg)
	}
	res := RepairResult{}
	for t := req.From; t <= req.Tg; t++ {
		g := req.Base[t-1]
		if g < 0 {
			return RepairResult{}, fmt.Errorf("core: repair base[%d]=%d is negative", t-1, g)
		}
		if g < cfg.K {
			res.Deficit = append(res.Deficit, t)
		}
	}
	if len(res.Deficit) == 0 {
		res.Feasible = true // nothing to buy: the survivors still cover K
		return res, nil
	}
	// Instrumentation: a repair is "triggered" once a real deficit exists.
	// The observer also times the residual solve; the hooks vanish when
	// it is nil.
	obsv, now := opts.Observer, opts.Now
	var start time.Time
	if obsv != nil {
		if now == nil {
			now = time.Now
		}
		start = now()
		obsv.Observe(obs.Event{
			Kind: obs.EvRepairTriggered, Tg: req.Tg, Round: req.From,
			Client: -1, Bid: -1, Value: float64(len(res.Deficit)),
		})
		defer func() {
			obsv.Observe(obs.Event{
				Kind: obs.EvRepairDone, Tg: req.Tg, Round: req.From,
				Client: -1, Bid: -1, Value: res.Cost, OK: res.Feasible,
				Dur: now().Sub(start),
			})
		}()
	}

	residual, orig := residualBids(set, req)
	if len(residual) == 0 {
		return res, nil
	}
	qualified := Qualified(residual, req.Tg, cfg)
	if len(qualified) == 0 {
		return res, nil
	}
	rset := CompileBids(residual)
	wdp := solveOnce(rset, qualified, req.Tg, cfg, req.Base)
	if !wdp.Feasible {
		return res, nil
	}
	// Lazy payment stage on the residual market, before the winner indices
	// are remapped (the bisection probes index the residual population).
	if err := priceWinners(ctx, rset, qualified, req.Tg, cfg, req.Base, &wdp, opts.Workers, obsv, now); err != nil {
		return RepairResult{}, err
	}
	res.Feasible = true
	res.Cost = wdp.Cost
	res.Winners = wdp.Winners
	for i := range res.Winners {
		// Map back to the auction's bid slice; the Bid field keeps the
		// clamped window that was actually awarded.
		res.Winners[i].BidIndex = orig[res.Winners[i].BidIndex]
	}
	return res, nil
}

// residualBids builds the residual bid population of a repair: the bids
// of clients req does not exclude, windows clamped to [req.From, req.Tg]
// and rounds capped to the clamped window so the bids stay internally
// valid. orig[i] is residual bid i's index in set.
func residualBids(set *BidSet, req RepairRequest) (residual []Bid, orig []int) {
	residual = make([]Bid, 0, set.Len())
	orig = make([]int, 0, set.Len())
	for idx := 0; idx < set.Len(); idx++ {
		b := set.Bid(idx)
		if req.Exclude[b.Client] {
			continue
		}
		lo, hi := b.Start, b.End
		if lo < req.From {
			lo = req.From
		}
		if hi > req.Tg {
			hi = req.Tg
		}
		if lo > hi {
			continue // window entirely in the past or beyond the horizon
		}
		rb := b
		rb.Start, rb.End = lo, hi
		if n := hi - lo + 1; rb.Rounds > n {
			rb.Rounds = n
		}
		residual = append(residual, rb)
		orig = append(orig, idx)
	}
	return residual, orig
}
