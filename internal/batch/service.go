package batch

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/obs"
)

// Service is the long-lived form of the batch layer: a fixed worker pool
// consuming a bounded submission queue, built for serving daemons (the
// flplatform marketplace) where auction instances arrive continuously
// rather than as one batch.
//
//	svc := batch.NewService(ctx, batch.Options{Workers: 8, Queue: 64})
//	go func() { for o := range svc.Results() { ... } }()
//	idx, err := svc.Submit(ctx, inst) // blocks when 64 instances wait
//	...
//	svc.Close() // drain the queue, then close Results
//
// Backpressure is the queue bound: Submit blocks once Queue instances
// are waiting, so a traffic spike slows producers down instead of
// growing memory without limit. Canceling the base context stops the
// workers (in-flight sweeps are abandoned mid-solve, queued instances
// are dropped); Close performs a graceful drain. Either way no goroutine
// survives, and every instance that reached a worker produces exactly
// one Outcome on Results.
type Service struct {
	base   context.Context
	opts   Options
	jobs   chan serviceJob
	out    chan Outcome
	wg     sync.WaitGroup
	queued atomic.Int64
	start  time.Time
	solved atomic.Int64

	mu     sync.RWMutex
	closed bool
	next   atomic.Int64
}

type serviceJob struct {
	idx  int
	inst Instance
}

// NewService starts the worker pool. ctx bounds the service's whole
// lifetime: canceling it aborts queued and in-flight work. opts follows
// Run's conventions (Workers <= 0 selects GOMAXPROCS; Queue 0 selects
// twice the worker count).
func NewService(ctx context.Context, opts Options) *Service {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = opts.workers(1 << 30) // GOMAXPROCS, unclamped by a batch size
	}
	queue := opts.Queue
	if queue <= 0 {
		queue = 2 * workers
	}
	if opts.Observer != nil && opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Service{
		base: ctx,
		opts: opts,
		jobs: make(chan serviceJob, queue),
		out:  make(chan Outcome, queue+workers),
	}
	if opts.Observer != nil {
		s.start = opts.Now()
		opts.Observer.Observe(obs.Event{
			Kind: obs.EvBatchStarted, Round: workers, Client: -1, Bid: -1,
		})
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Service) worker() {
	defer s.wg.Done()
	// Held across submissions like a Run worker's engine: same-class
	// auctions rebind the arena in place. While the worker idles the
	// arena pins the last instance's BidSet; Close or cancellation
	// releases it.
	var eng *core.Engine
	defer func() { eng.Release() }()
	for {
		select {
		case <-s.base.Done():
			return
		case j, ok := <-s.jobs:
			if !ok {
				return
			}
			depth := s.queued.Add(-1)
			if o := s.opts.Observer; o != nil {
				o.Observe(obs.Event{
					Kind: obs.EvAuctionDequeued, Client: -1, Bid: j.idx,
					Value: float64(depth),
				})
			}
			var outcome Outcome
			outcome, eng = solveOne(s.base, j.idx, j.inst, s.opts.Observer, s.opts.Now, eng)
			s.solved.Add(1)
			select {
			case s.out <- outcome:
			case <-s.base.Done():
				// The consumer may be gone; dropping the outcome beats
				// leaking this worker forever.
				return
			}
		}
	}
}

// Submit enqueues one instance and returns its sequence number (the
// Index its Outcome will carry). It blocks while the queue is full —
// that is the backpressure contract — until ctx or the service's base
// context is done, or the service is closed, in which case the error
// reports which (ErrClosed, or an error matching core.ErrCanceled and
// the context cause). Submit is safe for concurrent use; sequence
// numbers are unique and increasing, but a Submit that fails after
// reserving its number (cancellation racing the enqueue) leaves a gap
// rather than reissuing it.
func (s *Service) Submit(ctx context.Context, inst Instance) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The read lock covers the closed check and the send (so Close cannot
	// close s.jobs mid-Submit); the sequence counter is atomic because
	// concurrent producers all hold the read lock at once.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	idx := int(s.next.Add(1) - 1)
	if err := s.enqueue(ctx, idx, inst); err != nil {
		return 0, err
	}
	return idx, nil
}

// SubmitSeq enqueues one instance under a caller-chosen sequence number
// — the recovery hook of the durability layer. A write-ahead log that
// assigned seq to a bid before a crash re-submits it under the same seq
// after restart, so the replayed Outcome carries the index the client
// was originally acknowledged with; the internal counter is advanced
// past seq so later Submit calls never collide with a replayed one.
//
// The caller owns sequence discipline: submitting the same seq twice in
// one service lifetime yields two Outcomes with equal Index. Blocking,
// cancellation and error semantics match Submit.
func (s *Service) SubmitSeq(ctx context.Context, seq int, inst Instance) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for {
		cur := s.next.Load()
		if cur > int64(seq) || s.next.CompareAndSwap(cur, int64(seq)+1) {
			break
		}
	}
	return s.enqueue(ctx, seq, inst)
}

// enqueue performs the guarded send shared by Submit and SubmitSeq; the
// caller holds the read lock. The service-wide payment-rule and solver
// overrides are applied here, at intake, so every path into the pool
// sees them.
func (s *Service) enqueue(ctx context.Context, idx int, inst Instance) error {
	if s.opts.Rule != nil {
		inst.Cfg.PaymentRule = *s.opts.Rule
	}
	if s.opts.Solver != nil {
		inst.Solver = *s.opts.Solver
	}
	select {
	case s.jobs <- serviceJob{idx: idx, inst: inst}:
		depth := s.queued.Add(1)
		if o := s.opts.Observer; o != nil {
			o.Observe(obs.Event{
				Kind: obs.EvAuctionQueued, Client: -1, Bid: idx,
				Value: float64(depth),
			})
		}
		return nil
	case <-ctx.Done():
		return canceledErr(ctx)
	case <-s.base.Done():
		return canceledErr(s.base)
	}
}

// Results returns the outcome channel. It is closed by Close after the
// queue has drained (or immediately after the workers exit, when the
// base context was canceled); range over it to consume the service's
// output.
func (s *Service) Results() <-chan Outcome { return s.out }

// QueueDepth reports the number of submitted instances not yet picked up
// by a worker.
func (s *Service) QueueDepth() int { return int(s.queued.Load()) }

// Close stops accepting submissions, waits for the queue to drain and
// the workers to exit, then closes Results. It is idempotent. If the
// base context is already canceled the drain is immediate (workers exit
// without solving the backlog).
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// No Submit is in flight past this point (Submit holds the read lock
	// for its whole send), so closing the queue is race-free.
	close(s.jobs)
	s.wg.Wait()
	if o := s.opts.Observer; o != nil {
		o.Observe(obs.Event{
			Kind: obs.EvBatchDone, Client: -1, Bid: -1,
			Value: float64(s.solved.Load()), OK: s.base.Err() == nil,
			Dur: s.opts.Now().Sub(s.start),
		})
	}
	close(s.out)
}
