// Package batch is the cross-auction throughput layer: it runs many
// independent A_FL auction instances over one clamped worker pool instead
// of letting each auction spin up its own goroutines and engine state.
//
// An FL services market serves one procurement auction per FL job, and
// jobs arrive continuously — so the unit of scaling is auctions per
// second, not the latency of one sweep. The naive way to run M auctions
// (M goroutines, each calling the facade) pays M full engine
// constructions, M uncoordinated goroutine fan-outs that oversubscribe
// each other, and has neither backpressure nor a cancellation story. This
// package replaces that with:
//
//   - one clamped worker pool (Run) whose workers claim instances in
//     submission order from one atomic cursor, so a worker that finishes
//     early takes the next instance and skewed instance costs cannot
//     strand a worker;
//   - pooled engines: each instance is solved on a pooled engine
//     (core.ReacquireEngineSet) whose qualification arena is recycled
//     through shape-keyed pools, so steady-state batch solves allocate
//     little beyond the row compile and what escapes into their Results;
//   - a bounded submission queue with backpressure (Service) for
//     long-lived serving processes, with mid-flight context cancellation
//     that surfaces partial results per instance and leaks no goroutines.
//
// Each instance's sweep runs sequentially (Workers: 1 inside the
// engine): across-instance parallelism already saturates the pool, and
// per-instance fan-out on top of it would oversubscribe the scheduler —
// the exact failure mode this package exists to remove. A one-worker Run
// solves every instance on the calling goroutine. Results are
// bit-identical to running each instance through afl.Run serially.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/fedauction/afl/internal/colgen"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/obs"
)

// Instance is one auction to solve: a sealed-bid population and its
// auction configuration. The batch layer never mutates either.
//
// The population may arrive in either layout. Set, when non-nil, is the
// columnar form (core.CompileBids) and takes precedence over Bids; it is
// the high-volume ingestion path — one compiled BidSet can back many
// instances, and consecutive instances of a worker that share one Set
// under an equivalent Cfg warm-start from the previous solve's engine
// (validation and the whole qualification rebuild are skipped, see
// core.ReacquireEngineSet). Bids is the row-oriented compat form,
// compiled per instance when a worker picks it up; the two yield
// bit-identical Outcomes.
type Instance struct {
	// Bids is the instance's sealed-bid population in row form. Ignored
	// when Set is non-nil.
	Bids []core.Bid
	// Set is the instance's population in columnar form; nil selects Bids.
	Set *core.BidSet
	// Cfg carries the instance's auction parameters (T, K, payment rule,
	// reserve, ...).
	Cfg core.Config
	// Solver selects this instance's sweep strategy (core.Solver); the
	// zero value is the exact enumeration, so historical instances are
	// untouched.
	Solver core.Solver
}

// Outcome is the per-instance result of a batch run. Exactly one Outcome
// is produced per submitted instance, in all cases: solved, infeasible
// (Err matches core.ErrInfeasible, Result still carries the per-T̂_g
// diagnostics), rejected by validation, or abandoned by cancellation
// (Err matches core.ErrCanceled and the context cause).
type Outcome struct {
	// Index identifies the instance: its position in the slice passed to
	// Run, or the sequence number returned by Service.Submit.
	Index int
	// Result is the auction outcome; meaningful when Err is nil or
	// matches core.ErrInfeasible.
	Result core.Result
	// Err classifies failure using the package's sentinel surface.
	Err error
}

// Options configures a batch run or service.
type Options struct {
	// Workers is the width of the cross-auction pool: n > 0 uses n
	// workers, n <= 0 selects GOMAXPROCS. Run additionally clamps to the
	// instance count. Unlike a single sweep — where the zero value means
	// "inline" — a throughput layer defaults to using the machine.
	Workers int
	// Queue bounds the Service submission queue; Submit blocks (that is
	// the backpressure) once Queue instances are waiting. Zero selects
	// twice the worker count. Ignored by Run, whose instance slice is the
	// queue.
	Queue int
	// Observer receives the batch-level events (batch_started,
	// auction_queued, auction_dequeued, batch_done) and is passed through
	// to every instance's sweep, so per-auction phase events —
	// auction_started … auction_done, which carries the per-auction
	// latency — interleave with the batch stream. Nil disables
	// instrumentation entirely; non-nil observers must be safe for
	// concurrent use.
	Observer obs.Observer
	// Now supplies timestamps for latencies; nil selects time.Now.
	// Ignored when Observer is nil.
	Now func() time.Time
	// Rule, when non-nil, overrides every instance's Cfg.PaymentRule at
	// intake (Run's instance slice, Service submissions), leaving the
	// caller's Instances untouched. Nil solves each instance under its
	// own Cfg.
	Rule *core.PaymentRule
	// Solver, when non-nil, overrides every instance's Solver at intake,
	// with the same copy-on-override semantics as Rule.
	Solver *core.Solver
}

// workers resolves the pool width for n runnable tasks.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return core.ClampWorkers(w, n)
}

// Run solves every instance over one shared worker pool and returns one
// Outcome per instance, index-aligned with instances. The only non-nil
// error is cancellation: partial work is kept — instances that finished
// before the cancellation keep their results, the rest carry an Err
// matching core.ErrCanceled — and the returned error matches both
// core.ErrCanceled and the context cause under errors.Is. No goroutine
// outlives the call.
func Run(ctx context.Context, instances []Instance, opts Options) ([]Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Outcome, len(instances))
	for i := range out {
		out[i].Index = i
	}
	if len(instances) == 0 {
		return out, nil
	}
	if opts.Rule != nil || opts.Solver != nil {
		overridden := make([]Instance, len(instances))
		copy(overridden, instances)
		for i := range overridden {
			if opts.Rule != nil {
				overridden[i].Cfg.PaymentRule = *opts.Rule
			}
			if opts.Solver != nil {
				overridden[i].Solver = *opts.Solver
			}
		}
		instances = overridden
	}
	workers := opts.workers(len(instances))
	obsv := opts.Observer
	now := opts.Now
	if obsv != nil && now == nil {
		now = time.Now
	}
	var start time.Time
	if obsv != nil {
		start = now()
		obsv.Observe(obs.Event{
			Kind: obs.EvBatchStarted, Round: workers, Client: -1, Bid: -1,
			Value: float64(len(instances)),
		})
		// Value is the queue depth after the enqueue (matching the
		// EvAuctionQueued contract and the Service path), so the gauge
		// climbs to len(instances) before the workers start draining.
		for i := range instances {
			obsv.Observe(obs.Event{
				Kind: obs.EvAuctionQueued, Client: -1, Bid: i,
				Value: float64(i + 1),
			})
		}
	}

	var next atomic.Int64
	core.FanOut(workers, func(int) {
		// The worker keeps its engine across instances: same-class
		// auctions rebind the held arena in place, so a GC flushing the
		// shape pools mid-batch never forces reconstruction.
		var eng *core.Engine
		defer func() { eng.Release() }()
		for {
			idx := int(next.Add(1)) - 1
			if idx >= len(instances) {
				return
			}
			if obsv != nil {
				// Value is the queue depth after the dequeue: the
				// instances no worker has claimed yet.
				obsv.Observe(obs.Event{
					Kind: obs.EvAuctionDequeued, Client: -1, Bid: idx,
					Value: float64(len(instances) - 1 - idx),
				})
			}
			out[idx], eng = solveOne(ctx, idx, instances[idx], obsv, now, eng)
		}
	})
	err := ctx.Err()
	if obsv != nil {
		obsv.Observe(obs.Event{
			Kind: obs.EvBatchDone, Client: -1, Bid: -1,
			Value: float64(len(instances)), OK: err == nil, Dur: now().Sub(start),
		})
	}
	if err != nil {
		return out, canceledErr(ctx)
	}
	return out, nil
}

// solveOne runs a single instance on a pooled engine, compiling a row
// instance first and rebinding the worker's held engine in place when the
// shape class matches (prev may be nil). SolverLPRound instances get the
// column-generation certifier. The rebound engine is returned for the
// worker's next instance — nil after a validation error, so the next
// call falls back to a fresh acquisition. Cancellation is checked before
// touching the engine so a canceled batch drains its remaining instances
// in microseconds.
func solveOne(ctx context.Context, idx int, inst Instance, obsv obs.Observer, now func() time.Time, prev *core.Engine) (Outcome, *core.Engine) {
	o := Outcome{Index: idx}
	if ctx.Err() != nil {
		o.Err = canceledErr(ctx)
		return o, prev
	}
	set := inst.Set
	if set == nil {
		set = core.CompileBids(inst.Bids)
	}
	eng, err := core.ReacquireEngineSet(prev, set, inst.Cfg)
	if err != nil {
		o.Err = err
		return o, nil
	}
	ro := core.RunOptions{Workers: 1, Observer: obsv, Now: now, Solver: inst.Solver}
	if inst.Solver == core.SolverLPRound {
		ro.LP = colgen.Certifier{}
	}
	o.Result, o.Err = eng.RunCtx(ctx, ro)
	return o, eng
}

// canceledErr mirrors core's convention: the returned error matches both
// core.ErrCanceled and the context cause under errors.Is.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", core.ErrCanceled, context.Cause(ctx))
}

// ErrClosed is returned by Service.Submit after Close.
var ErrClosed = errors.New("batch: service closed")
