// Package obs is the observability layer of the auction stack: a
// structured phase-trace event stream plus allocation-light metric
// primitives (counters, gauges, fixed-bucket latency histograms) with a
// text/expvar-style exposition snapshot.
//
// The package is a dependency leaf — it imports nothing from the rest of
// the module — so every layer (core solver, networked platform, chaos
// harness, commands) can emit into it without cycles. Instrumented code
// holds an Observer that is nil by default; every hook point is guarded
// by a nil check, so the un-instrumented hot path costs one predictable
// branch and zero allocations (locked in by the facade's alloc-guard
// test against its recorded baseline).
//
// Two Observer implementations ship with the package:
//
//   - Trace records the raw event sequence — deterministic over a fixed
//     workload when given a deterministic time source — for golden tests
//     and postmortems;
//   - Metrics folds events into a Registry of counters, gauges and
//     latency histograms for serving dashboards; counter values are
//     order-independent, so they stay deterministic even when events
//     arrive from concurrent workers.
package obs

import "time"

// EventKind enumerates the phase-trace hook points of the auction stack.
type EventKind uint8

const (
	// EvAuctionStarted opens a T̂_g sweep. Tg carries the horizon T,
	// Round the sweep start T_0, Value the bid-population size.
	EvAuctionStarted EventKind = iota
	// EvWDPSolved closes one fixed-T̂_g winner-determination solve.
	// Tg is the candidate T̂_g, OK its feasibility, Value its social
	// cost, Dur the solve latency.
	EvWDPSolved
	// EvWinnerAccepted reports one accepted bid of the winning WDP.
	// Client/Bid identify the bid, Value is its claimed price.
	EvWinnerAccepted
	// EvPaymentComputed reports one winner's remuneration. Value is the
	// payment p_i.
	EvPaymentComputed
	// EvAuctionDone closes the sweep. OK is overall feasibility, Tg the
	// chosen T_g*, Value the minimum social cost, Dur the sweep latency.
	EvAuctionDone
	// EvRepairTriggered opens a mid-session coverage repair. Tg is the
	// committed horizon, Round the first repairable iteration, Value the
	// number of under-covered iterations.
	EvRepairTriggered
	// EvRepairDone closes a repair. OK reports whether coverage was
	// restored, Value the total replacement cost, Dur the solve latency.
	EvRepairDone
	// EvRetryFired marks one re-delivery of a round request to an
	// unresponsive winner. Round is the iteration, Client the winner.
	EvRetryFired
	// EvStragglerDetected marks a client that answered only after at
	// least one retry. Value is the number of delivery attempts consumed.
	EvStragglerDetected
	// EvDropDetected marks a winner that exhausted all delivery attempts
	// and is declared dropped.
	EvDropDetected
	// EvRoundDone closes one training round. Round is the iteration, OK
	// is false when the round ran under-covered, Value the number of
	// aggregated updates.
	EvRoundDone
	// EvFaultInjected marks one injected network fault. Label is the
	// fault kind ("drop", "delay", "dup", "crash"), Client the affected
	// link, Value the injected delay in seconds (delay faults only).
	EvFaultInjected
	// EvPricingStarted opens the lazy exact-critical payment stage, which
	// runs once, on the winner set of the selected T̂_g (or a repair's
	// residual market). Tg is the priced T̂_g, Round the pricing worker
	// count, Value the number of winners to price.
	EvPricingStarted
	// EvWinnerPriced reports one winner's exact-critical payment.
	// Client/Bid identify the bid, Value is the payment, Round the number
	// of bisection probes (full allocation re-solves) consumed, Dur the
	// per-winner pricing latency.
	EvWinnerPriced
	// EvPricingDone closes the payment stage. Value is the total payment
	// of the priced winner set, OK is false when pricing was abandoned by
	// context cancellation, Dur the stage latency.
	EvPricingDone
	// EvBatchStarted opens a cross-auction batch (RunBatch) or a batch
	// service lifetime (Service). Value is the number of submitted
	// instances (zero for a service, which learns its load later), Round
	// the scheduler's worker count.
	EvBatchStarted
	// EvAuctionQueued marks one auction instance entering the submission
	// queue. Bid carries the instance index, Value the queue depth after
	// the enqueue.
	EvAuctionQueued
	// EvAuctionDequeued marks a worker picking an instance up for
	// solving. Bid carries the instance index, Value the queue depth
	// after the removal. The instance's own phase events
	// (auction_started … auction_done) follow between this event and the
	// next dequeue by the same worker.
	EvAuctionDequeued
	// EvBatchDone closes a batch or service. Value is the number of
	// instances that produced an outcome, OK is false when the batch was
	// abandoned by context cancellation, Dur the batch latency.
	EvBatchDone
	// EvMarketRecovered closes a durable market's WAL replay on startup.
	// Value is the number of committed outcomes restored, Round the
	// number of pending (logged-but-unsolved) submissions re-submitted,
	// Dur the replay latency, OK true when the log was clean (no torn
	// tail, no duplicate records).
	EvMarketRecovered
	// EvWALFault marks one anomaly absorbed during WAL replay. Label is
	// the fault class ("torn_tail", "dup_record");
	// Value is the dropped byte count for torn tails, otherwise the
	// affected sequence number.
	EvWALFault
	// EvRateLimited marks one submission rejected by the per-client
	// token bucket at the HTTP edge. Label is the client key, Value the
	// advised retry delay in seconds.
	EvRateLimited
	// EvAdmissionRejected marks one submission turned away by queue-depth
	// admission control. Value is the pending depth at rejection.
	EvAdmissionRejected
	// EvCertificateComputed closes an approximate sweep's certificate
	// assembly. Label is the solver tier ("coarse-fine", "lp-round"),
	// Tg the selected T̂_g, Round the number of candidates actually
	// solved, Value the certified approximation ratio, OK feasibility.
	EvCertificateComputed
	// EvWALCheckpoint closes one durable-market checkpoint: a rotation
	// into a checkpoint-flagged segment, the snapshot record append, and
	// the prune of covered history. Value is the next sequence number
	// captured by the snapshot, Round the number of segments pruned, Dur
	// the checkpoint latency, OK false when the snapshot write failed.
	EvWALCheckpoint
	// EvWALSegmentRotated marks the WAL sealing its active segment and
	// opening a new one. Value is the new segment index, OK true when the
	// new segment starts with a checkpoint record.
	EvWALSegmentRotated
	// EvGroupCommit closes one coalesced fsync of the group-commit
	// syncer. Value is the number of records made durable by the single
	// fsync (the batch size), Dur the fsync latency.
	EvGroupCommit

	numEventKinds = int(EvGroupCommit) + 1
)

var eventKindNames = [numEventKinds]string{
	EvAuctionStarted:      "auction_started",
	EvWDPSolved:           "wdp_solved",
	EvWinnerAccepted:      "winner_accepted",
	EvPaymentComputed:     "payment_computed",
	EvAuctionDone:         "auction_done",
	EvRepairTriggered:     "repair_triggered",
	EvRepairDone:          "repair_done",
	EvRetryFired:          "retry_fired",
	EvStragglerDetected:   "straggler_detected",
	EvDropDetected:        "drop_detected",
	EvRoundDone:           "round_done",
	EvFaultInjected:       "fault_injected",
	EvPricingStarted:      "pricing_started",
	EvWinnerPriced:        "winner_priced",
	EvPricingDone:         "pricing_done",
	EvBatchStarted:        "batch_started",
	EvAuctionQueued:       "auction_queued",
	EvAuctionDequeued:     "auction_dequeued",
	EvBatchDone:           "batch_done",
	EvMarketRecovered:     "market_recovered",
	EvWALFault:            "wal_fault",
	EvRateLimited:         "rate_limited",
	EvAdmissionRejected:   "admission_rejected",
	EvCertificateComputed: "certificate_computed",
	EvWALCheckpoint:       "wal_checkpoint",
	EvWALSegmentRotated:   "wal_segment_rotated",
	EvGroupCommit:         "group_commit",
}

// String returns the kind's snake_case name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one structured phase-trace record. It is a flat value — no
// pointers, no per-event allocation — so emitting one costs a stack copy
// and whatever the Observer does with it. Field meaning depends on Kind
// (see the EventKind constants); unused fields are zero.
type Event struct {
	// Kind identifies the hook point.
	Kind EventKind
	// Tg is the number of global iterations in play.
	Tg int
	// Round is a global-iteration index (1-based), or the sweep start.
	Round int
	// Client is a client ID, -1 when not applicable.
	Client int
	// Bid is a bid index into the auction's bid slice, -1 when not
	// applicable.
	Bid int
	// Value is the kind-specific magnitude (cost, payment, count, ...).
	Value float64
	// OK is the kind-specific success flag (feasible, repaired, covered).
	OK bool
	// Dur is the phase latency, zero when the emitter had no time source.
	Dur time.Duration
	// Label is a kind-specific discriminator (e.g. the fault kind).
	Label string
}

// Observer receives phase-trace events. Implementations must be safe for
// concurrent use: the concurrent sweep and the networked platform emit
// from multiple goroutines. Observe must not retain the event past the
// call (it is a value, so plain stores are fine) and should return
// quickly — it runs inline on the instrumented path.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// multi fans one event out to several observers in order.
type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Multi returns an Observer that forwards every event to each non-nil
// observer in order. Nil entries are dropped; zero or one live entries
// collapse to nil or the entry itself.
func Multi(obs ...Observer) Observer {
	live := make(multi, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
