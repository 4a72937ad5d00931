package afl

import (
	"context"
	"net/http"
	"time"

	"github.com/fedauction/afl/internal/marketd"
)

// Durable market types, re-exported from the implementation package.
// The market layer is the daemon surface of the module: a Service that
// remembers. Submitted bids and solved outcomes, each carrying every
// winner's payment, are written to an append-only checksummed event log
// (WithDurability) and replayed bit-identically on the next OpenMarket,
// so a crashed daemon restarts with zero lost or duplicated auctions.
type (
	// Market is a durable auction market: submissions are acknowledged
	// only once logged, outcomes commit atomically (the commit-marker
	// protocol), and Open replays the log on startup. Construct with
	// OpenMarket.
	Market = marketd.Market
	// MarketOutcome is the durable, servable form of one solved
	// submission — what the log stores, recovery replays, and the HTTP
	// API returns.
	MarketOutcome = marketd.OutcomeRecord
	// MarketWinner is the committed view of one accepted bid inside a
	// MarketOutcome.
	MarketWinner = marketd.WinnerRecord
)

// Market error sentinels.
var (
	// ErrMarketClosed is returned by market operations after Close or a
	// crash-point kill.
	ErrMarketClosed = marketd.ErrClosed
	// ErrUnknownSeq is returned by Market.Wait and Market.Outcome for a
	// sequence number the market never issued.
	ErrUnknownSeq = marketd.ErrUnknownSeq
	// ErrOutcomePruned is returned by Market.Wait and Market.Outcome for
	// a committed outcome that the retention policy (WithRetainOutcomes)
	// has evicted from history. Its payments remain in the ledger.
	ErrOutcomePruned = marketd.ErrPruned
)

// WithDurability gives the market an append-only event log in dir
// (created on first use): every submission is fsynced before it is
// acknowledged, so it survives process death and power loss and is
// re-solved or restored on the next OpenMarket.
// Omitting the option runs the market volatile — a plain Service with
// the market's query surface.
func WithDurability(dir string) Option {
	return func(rc *runConfig) { rc.walDir = dir }
}

// WithRateLimit applies a per-client token bucket at the market's HTTP
// edge: each client key may submit at perSec sustained with bursts of
// burst; excess submissions are rejected with 429 and a Retry-After
// that, when honored, readmits the client. perSec <= 0 (the default)
// disables rate limiting; burst <= 0 selects max(1, ceil(perSec)).
func WithRateLimit(perSec float64, burst int) Option {
	return func(rc *runConfig) { rc.ratePerSec, rc.rateBurst = perSec, burst }
}

// WithMaxPending bounds admission at the market's HTTP edge: while more
// than n acknowledged submissions await their outcomes, new submissions
// are rejected with 503 instead of queueing unboundedly. n <= 0 (the
// default) disables the check.
func WithMaxPending(n int) Option {
	return func(rc *runConfig) { rc.maxPending = n }
}

// WithGroupCommit has no effect: every durable market coalesces
// concurrent commits into shared fsyncs, and acknowledgments still wait
// for the fsync that covers them.
//
// Deprecated: group commit is the only commit path; omit the option.
func WithGroupCommit(interval time.Duration) Option {
	return func(*runConfig) {}
}

// WithCheckpointEvery writes a checkpoint every n committed auctions: a
// snapshot record in a fresh WAL segment holding the payment ledger and
// the log positions of the retained outcomes and pending submissions,
// after which the segments below both the checkpoint and the oldest
// position it holds are pruned. Restart restores the snapshot and
// replays the post-checkpoint tail instead of all of history. n <= 0
// (the default) disables checkpoints and keeps the single ever-growing
// log.
func WithCheckpointEvery(n int) Option {
	return func(rc *runConfig) { rc.checkpointEvery = n }
}

// WithSegmentBytes rotates the WAL into a fresh segment file once the
// active one exceeds n bytes, bounding per-file size between
// checkpoints. n <= 0 (the default) never rotates on size.
func WithSegmentBytes(n int64) Option {
	return func(rc *runConfig) { rc.segmentBytes = n }
}

// WithRetainOutcomes bounds the per-auction history the market serves:
// once more than n outcomes older than the fold frontier accumulate,
// the oldest are evicted. Their payments remain in the ledger forever;
// reads of an evicted sequence return ErrOutcomePruned (HTTP 410).
// Retained outcomes are read back from the event log, so with
// checkpoints the window also bounds the log: it keeps about one window
// of auctions beyond the tail. n <= 0 (the default) retains everything,
// and a checkpointed log then keeps all of its history.
func WithRetainOutcomes(n int) Option {
	return func(rc *runConfig) { rc.retainOutcomes = n }
}

// OpenMarket starts (or, with WithDurability, restarts) a market. With
// a durability directory the event log is replayed before OpenMarket
// returns: committed outcomes and the payment ledger are restored
// verbatim — never re-solved, so payments cannot drift — torn tails and
// duplicate records are absorbed and counted (Market.RecoveredFaults),
// and logged-but-uncommitted submissions are re-queued under their
// original sequence numbers. ctx bounds the market's lifetime; cancel
// it or call Market.Close.
//
// The recognized options are WithDurability, WithCheckpointEvery,
// WithSegmentBytes, WithRetainOutcomes, WithWorkers (0 or negative
// selects GOMAXPROCS), WithQueue, WithRateLimit, WithMaxPending,
// WithObserver, WithNow, WithPaymentRule and WithSolver (both applied
// to every submission before its bid record is logged, so recovery
// re-solves under the same rule and solver tier; an approximate-tier
// outcome additionally persists its certified lower bound and ratio in
// the committed record).
func OpenMarket(ctx context.Context, opts ...Option) (*Market, error) {
	rc := applyOptions(opts)
	return marketd.Open(ctx, marketd.Config{
		Dir:             rc.walDir,
		Workers:         rc.workers,
		Queue:           rc.queue,
		CheckpointEvery: rc.checkpointEvery,
		SegmentBytes:    rc.segmentBytes,
		RetainOutcomes:  rc.retainOutcomes,
		RatePerSec:      rc.ratePerSec,
		Burst:           rc.rateBurst,
		MaxPending:      rc.maxPending,
		Observer:        rc.obsv,
		Now:             rc.now,
		Rule:            rc.ruleOverride(),
		Solver:          rc.solverOverride(),
	})
}

// MarketHandler returns the market's HTTP API, ready for an
// http.Server:
//
//	POST /v1/auctions        submit; 200 {"seq":n}, 429/503 + Retry-After
//	POST /v1/auctions:batch  submit many under one group commit; 200 {"seqs":[...]}
//	GET  /v1/auctions/{seq}  200 committed outcome, 202 pending, 404 unknown,
//	                         410 pruned by the retention policy, 500 when
//	                         the committed record cannot be read back
//	GET  /v1/ledger          per-client cumulative payments
//	GET  /v1/stats           load, recovery and WAL counters (bytes,
//	                         segments, last checkpoint seq, tail replayed)
//	GET  /healthz            liveness
func MarketHandler(m *Market) http.Handler {
	return marketd.Handler(m)
}
