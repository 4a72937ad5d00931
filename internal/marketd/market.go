// Package marketd is the durable market daemon: a long-lived auction
// service whose submitted bids, solved outcomes, and payment ledger
// survive process death.
//
// Architecturally it is a thin state machine wrapped around two
// existing layers: internal/batch solves (a bounded-queue worker pool
// over pooled engines), and internal/wal remembers (an append-only
// checksummed event log). The market's own job is exactly-once
// bookkeeping across crashes:
//
//   - Submit assigns a sequence number, appends a bid record to the WAL
//     and commits it (the acknowledgment waits for that durability
//     point), then enqueues the instance under that sequence via
//     Service.SubmitSeq;
//   - the consumer drains Service.Results and commits each outcome as
//     one self-contained outcome record — the commit marker, carrying
//     every winner's payment — and only once it is durable installs the
//     outcome and its ledger effects in memory;
//   - Open replays the log: committed outcomes are restored verbatim
//     (never re-solved, so payments can never drift), duplicate records
//     are dropped by sequence number, the per-winner pay records of logs
//     written by the older protocol are skipped, and bid records with
//     no commit marker are re-submitted under their original sequence
//     numbers.
//
// Because the solver is deterministic, a re-solved pending bid commits
// the byte-identical outcome record the lost solve would have written;
// replay is therefore bit-identical: the recovered state equals the
// state of an uninterrupted run, with zero lost or duplicated sequence
// numbers. The crash-point matrix (see Config.Crash and the test/e2e
// suite) pins this for every interleaving of the commit protocol.
//
// The serving fast path layers three optimizations on that protocol
// without changing its semantics:
//
//   - segmented WAL with checkpoints (Config.CheckpointEvery): every N
//     commits the market rotates into a checkpoint-flagged segment and
//     writes a snapshot record — folded ledger, retained outcomes, and
//     pending submissions — then prunes the covered segments. Recovery
//     opens at the newest checkpoint and replays only the tail, so
//     restart cost is O(tail), not O(history);
//   - group commit (Config.GroupCommit): the WAL's Commit is the
//     market's only durability call, one per Submit (or SubmitBatch) and
//     one per outcome, so an auction costs two fsyncs; with group commit
//     a dedicated syncer coalesces concurrent Commits into one fsync, so
//     full durability no longer serializes producers on disk latency;
//   - one reflection-free codec (encode.go, decode.go): append encoders
//     write every record, the checkpoint and the hot responses
//     byte-identical to json.Marshal into reused buffers, and one
//     scanner with typed decoders reads them back, and the submit
//     bodies, exactly as encoding/json would. Recovery keeps each
//     submission's bytes undecoded until the log is scanned and decodes
//     only the ones still pending, so a restart decodes the checkpoint's
//     ledger and outcomes, the tail's outcome records and the survivors'
//     bids, and nothing else.
package marketd

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/obs"
	"github.com/fedauction/afl/internal/wal"
)

// Crash points of the commit protocol, in protocol order. Config.Crash
// is consulted at each; returning true kills the market on the spot —
// the in-process equivalent of SIGKILL — leaving the WAL exactly as the
// protocol had it at that instant. The restart suite drives every point
// and asserts recovery converges to the uninterrupted golden state.
const (
	// CrashBidLogged fires after a submission's bid record is durably
	// appended, before it reaches the solve queue.
	CrashBidLogged = "bid_logged"
	// CrashOutcomeSolved fires after the solver produced an outcome,
	// before its commit marker is appended.
	CrashOutcomeSolved = "outcome_solved"
	// CrashPostCommit fires after the commit marker is durable and the
	// outcome installed — the crash that must change nothing on replay.
	CrashPostCommit = "post_commit"
	// CrashCheckpointRotated fires between the rotation into a fresh
	// checkpoint-flagged segment and the snapshot record append, leaving
	// an empty checkpoint segment that recovery must discard as debris.
	CrashCheckpointRotated = "checkpoint_rotated"
	// CrashCheckpointWritten fires after the snapshot record is durable,
	// before the covered segments are pruned — recovery starts at the new
	// checkpoint and the stale history is swept on a later checkpoint.
	CrashCheckpointWritten = "checkpoint_written"
)

// WALFileName is the log file the market keeps inside Config.Dir.
const WALFileName = "market.wal"

var (
	// ErrClosed is returned by operations on a closed or killed market.
	ErrClosed = errors.New("marketd: market closed")
	// ErrUnknownSeq is returned by Wait and Outcome for a sequence
	// number the market never issued.
	ErrUnknownSeq = errors.New("marketd: unknown sequence number")
	// ErrPruned is returned by Wait and Outcome for a committed sequence
	// number whose outcome the retention policy (Config.RetainOutcomes)
	// has evicted. Its payments remain in the ledger; only the
	// per-auction record is gone.
	ErrPruned = errors.New("marketd: outcome pruned from history")
)

// Config configures a market.
type Config struct {
	// Dir is the durability directory; the market keeps WALFileName
	// inside it. Empty runs the market volatile (no WAL, no recovery) —
	// the pre-durability Service behaviour, useful for benchmarks.
	Dir string
	// Workers and Queue follow batch.Options: pool width (0 selects
	// GOMAXPROCS) and submission queue bound (0 selects twice the
	// workers).
	Workers, Queue int
	// NoSync disables fsync (tests and benchmarks only).
	NoSync bool
	// GroupCommit enables cross-request fsync coalescing: a dedicated
	// syncer goroutine batches every in-flight Submit and outcome commit
	// into one fsync, so full durability no longer serializes producers
	// on disk latency. Without it each Submit and each outcome commit
	// fsyncs inline. Either way acknowledgments happen only after the
	// covering fsync returns.
	GroupCommit bool
	// SyncInterval caps group-commit latency trading it for batch size:
	// the syncer waits up to this long for more commits to pile onto the
	// pending fsync. 0 syncs as soon as the syncer gets the CPU.
	SyncInterval time.Duration
	// CheckpointEvery writes a checkpoint — rotate into a checkpoint
	// segment, append a snapshot of the folded state, prune covered
	// segments — every this many committed outcomes. 0 disables
	// checkpoints: the WAL is a single unbounded segment (the legacy
	// layout) and recovery replays all of history.
	CheckpointEvery int
	// SegmentBytes and SegmentRecords bound plain segment size between
	// checkpoints (see wal.DirOptions); 0 disables that trigger.
	SegmentBytes   int64
	SegmentRecords int
	// RetainOutcomes bounds the in-memory and checkpointed per-auction
	// history: once the contiguous committed prefix outgrows it, the
	// oldest outcomes are evicted and served as ErrPruned (HTTP 410).
	// Their payments stay folded in the ledger. 0 retains everything.
	RetainOutcomes int
	// RatePerSec and Burst configure the per-client token bucket applied
	// at the HTTP edge. RatePerSec <= 0 disables rate limiting; Burst
	// <= 0 selects max(1, ceil(RatePerSec)).
	RatePerSec float64
	Burst      int
	// MaxPending bounds admission at the HTTP edge: submissions are
	// rejected with 503 while more than MaxPending acknowledged
	// submissions await their outcome. <= 0 disables the check.
	MaxPending int
	// Observer receives the market's events (market_recovered, wal_fault,
	// rate_limited, admission_rejected) in addition to the batch and
	// per-auction streams. Nil disables instrumentation.
	Observer obs.Observer
	// Now supplies timestamps for event latencies and the rate limiter;
	// nil selects time.Now.
	Now func() time.Time
	// Rule, when non-nil, overrides every submission's Cfg.PaymentRule at
	// Submit time, BEFORE the bid record is logged — the WAL then carries
	// the overridden rule, so a recovery re-solve of a pending bid uses
	// the same rule the original solve would have, regardless of the
	// options the reopened market is given. Nil solves each submission
	// under its own Cfg.
	Rule *core.PaymentRule
	// Solver, when non-nil, overrides every submission's solver tier at
	// Submit time, with the same before-logging semantics as Rule: the
	// bid record carries the tier, so recovery re-solves pending bids
	// under it. Nil solves each submission under its own Instance.Solver.
	Solver *core.Solver
	// Crash is test instrumentation: consulted at each crash point with
	// the submission's sequence number; returning true kills the market
	// as if the process died there. Nil (production) never crashes.
	Crash func(point string, seq int) bool
}

// Market is a durable auction market service. All methods are safe for
// concurrent use.
type Market struct {
	cfg     Config
	svc     *batch.Service
	cancel  context.CancelFunc
	log     *wal.DirLog // nil when volatile
	limiter *tokenBucket

	killOnce     sync.Once
	killedFlag   atomic.Bool
	killCh       chan struct{}
	consumerDone chan struct{}
	// commits counts WAL commits in flight with mu released. Added to
	// under mu; kill and Close wait for it before they stop the log, so a
	// record whose commit has started either becomes durable and
	// acknowledged or is never acknowledged at all.
	commits sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	next     int
	pending  map[int]batch.Instance // acknowledged, not yet committed
	outcomes map[int]OutcomeRecord  // retained window: seqs in [base, …)
	waiters  map[int]chan struct{}
	faults   int // WAL anomalies absorbed during recovery

	// Incremental ledger: the fold of every committed outcome with seq <
	// foldedNext, maintained frontier-style (strictly ascending seq
	// order) so it is bit-identical to the full re-derivation the ledger
	// used to be. base marks the retention floor: outcomes with seq <
	// base are evicted (always < foldedNext, so their payments are in
	// the ledger).
	ledger     map[int]float64
	foldedNext int
	base       int

	commitsSinceCkpt int    // commits since the last checkpoint
	lastCkptSeq      int    // snapshot horizon of the newest checkpoint, -1 if none
	recoveredTail    int    // records replayed by the last recovery
	enc              []byte // append-encoder scratch, reused under mu
}

// Open starts (or restarts) a market. With a durability directory it
// replays the WAL first: committed outcomes and the ledger are restored
// verbatim, torn tails and duplicate records are absorbed (counted in
// RecoveredFaults), pay records of logs written before outcome records
// carried the whole commit are skipped, and logged-but-uncommitted bids
// are re-submitted under their original sequence numbers before Open
// returns. ctx bounds the market's lifetime; cancel it or call Close.
func Open(ctx context.Context, cfg Config) (*Market, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	base, cancel := context.WithCancel(ctx)
	m := &Market{
		cfg:          cfg,
		cancel:       cancel,
		killCh:       make(chan struct{}),
		consumerDone: make(chan struct{}),
		pending:      make(map[int]batch.Instance),
		outcomes:     make(map[int]OutcomeRecord),
		waiters:      make(map[int]chan struct{}),
		ledger:       make(map[int]float64),
		lastCkptSeq:  -1,
	}
	if cfg.RatePerSec > 0 {
		m.limiter = newTokenBucket(cfg.RatePerSec, cfg.Burst, cfg.Now)
	}
	m.svc = batch.NewService(base, batch.Options{
		Workers:  cfg.Workers,
		Queue:    cfg.Queue,
		Observer: cfg.Observer,
		Now:      cfg.Now,
	})

	var pendingInst map[int]batch.Instance
	if cfg.Dir != "" {
		var start time.Time
		if cfg.Observer != nil {
			start = cfg.Now()
		}
		var err error
		pendingInst, err = m.recover()
		if err != nil {
			cancel()
			m.svc.Close()
			return nil, err
		}
		if o := cfg.Observer; o != nil {
			o.Observe(obs.Event{
				Kind: obs.EvMarketRecovered, Client: -1, Bid: -1,
				Value: float64(len(m.outcomes)), Round: len(pendingInst),
				OK: m.faults == 0, Dur: cfg.Now().Sub(start),
			})
		}
	}

	go m.consume()

	// Re-submit survivors under their original sequence numbers, lowest
	// first. The consumer is already draining, so queue backpressure
	// cannot deadlock the replay however large the backlog is.
	seqs := make([]int, 0, len(pendingInst))
	for seq := range pendingInst {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		if err := m.svc.SubmitSeq(ctx, seq, pendingInst[seq]); err != nil {
			m.Close()
			return nil, fmt.Errorf("marketd: replaying seq %d: %w", seq, err)
		}
	}
	return m, nil
}

// recover opens the WAL directory, replays its records into the
// market's state, and returns the logged-but-uncommitted instances
// keyed by sequence number. When the directory has a valid checkpoint,
// the wal layer starts replay there: the first record is the snapshot,
// every later record the tail. Replay peeks each record's envelope and
// fully decodes only what it must: outcome bodies (installed) and the
// checkpoint's ledger and outcomes (restored). A submission — a tail
// bid record or a pending entry of the checkpoint — is kept as raw
// bytes until the scan is over and then decoded only if no outcome
// arrived for it, so superseded bids never pay for a decode, and the
// pay records older logs carry are skipped unread. Runs before the
// consumer starts, so no locking is needed.
func (m *Market) recover() (map[int]batch.Instance, error) {
	// The WAL hands replay each payload in a reused frame buffer, so a
	// kept submission is copied out, into the buffer of one whose outcome
	// has already arrived when there is one.
	raw := make(map[int][]byte) // seq -> bytes of a submission with no outcome yet
	var spare [][]byte
	keep := func(seq int, b []byte) {
		var buf []byte
		if n := len(spare); n > 0 {
			buf, spare = spare[n-1], spare[:n-1]
		}
		raw[seq] = append(buf[:0], b...)
	}
	first := true
	replay := func(payload []byte) error {
		typ, seq, err := peekEnvelope(payload)
		if err != nil {
			return err
		}
		wasFirst := first
		first = false
		switch typ {
		case recCheckpoint:
			if !wasFirst {
				return fmt.Errorf("marketd: checkpoint record mid-log at seq %d", seq)
			}
			return m.restoreCheckpoint(payload, keep)
		case recBid:
			if seq < m.base {
				m.fault("dup_record", float64(seq))
				return nil
			}
			if _, done := m.outcomes[seq]; done {
				m.fault("dup_record", float64(seq))
				return nil
			}
			if _, dup := raw[seq]; dup {
				m.fault("dup_record", float64(seq))
				return nil
			}
			keep(seq, payload)
			if seq >= m.next {
				m.next = seq + 1
			}
			return nil
		case recPay:
			// The per-winner write-ahead older logs carry; the outcome
			// record holds every payment, so there is nothing to replay.
			return nil
		case recOutcome:
			if seq < m.base {
				m.fault("dup_record", float64(seq))
				return nil
			}
			if _, done := m.outcomes[seq]; done {
				m.fault("dup_record", float64(seq))
				return nil
			}
			r, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			if r.Outcome == nil {
				return fmt.Errorf("marketd: outcome record %d without a body", seq)
			}
			m.installLocked(*r.Outcome)
			if b, ok := raw[seq]; ok {
				spare = append(spare, b)
				delete(raw, seq)
			}
			if seq >= m.next {
				m.next = seq + 1
			}
			return nil
		default:
			return fmt.Errorf("marketd: unknown WAL record type %q", typ)
		}
	}

	path := filepath.Join(m.cfg.Dir, WALFileName)
	log, stats, err := wal.OpenDir(path, m.walOptions(), replay)
	if err != nil {
		return nil, err
	}
	m.log = log
	m.recoveredTail = stats.TailRecords
	if stats.DroppedBytes > 0 {
		m.fault("torn_tail", float64(stats.DroppedBytes))
	}

	// The survivors: decode each once, now that no outcome can arrive,
	// lowest sequence first.
	seqs := make([]int, 0, len(raw))
	for seq := range raw {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	pendingInst := make(map[int]batch.Instance, len(raw))
	for _, seq := range seqs {
		inst, err := decodePending(raw[seq])
		if err != nil {
			return nil, fmt.Errorf("marketd: pending seq %d: %w", seq, err)
		}
		pendingInst[seq] = inst
	}

	// The pending set must live in m.pending too: a checkpoint written
	// after this restart re-homes these submissions into its snapshot,
	// which is what makes pruning their original bid records safe.
	for seq, inst := range pendingInst {
		m.pending[seq] = inst
	}
	return pendingInst, nil
}

// walOptions maps the market configuration onto the WAL directory
// options, wiring rotation and group-commit telemetry to the observer.
func (m *Market) walOptions() wal.DirOptions {
	opts := wal.DirOptions{
		NoSync:         m.cfg.NoSync,
		SegmentBytes:   m.cfg.SegmentBytes,
		SegmentRecords: m.cfg.SegmentRecords,
		GroupCommit:    m.cfg.GroupCommit,
		SyncInterval:   m.cfg.SyncInterval,
	}
	if o := m.cfg.Observer; o != nil {
		opts.OnRotate = func(seg int, checkpoint bool) {
			o.Observe(obs.Event{
				Kind: obs.EvWALSegmentRotated, Client: -1, Bid: -1,
				Value: float64(seg), OK: checkpoint,
			})
		}
		opts.OnGroupCommit = func(records int, dur time.Duration) {
			o.Observe(obs.Event{
				Kind: obs.EvGroupCommit, Client: -1, Bid: -1,
				Value: float64(records), Dur: dur,
			})
		}
	}
	return opts
}

// fault counts one absorbed WAL anomaly and reports it to the observer.
func (m *Market) fault(label string, value float64) {
	m.faults++
	if o := m.cfg.Observer; o != nil {
		o.Observe(obs.Event{
			Kind: obs.EvWALFault, Client: -1, Bid: -1, Label: label, Value: value,
		})
	}
}

// installLocked commits an outcome record to in-memory state: the
// outcome index, any waiters, and the incremental ledger. The ledger
// folds strictly along the contiguous committed frontier (ascending
// seq) — float addition is order-sensitive, and commit order varies
// with worker scheduling while frontier order does not, so the
// incremental fold stays bit-identical to a full re-derivation.
// Outcomes past a gap wait in the index until the frontier reaches
// them. Once folded, outcomes older than the retention window are
// evicted. Callers hold m.mu (or, during recovery, exclusive access).
func (m *Market) installLocked(rec OutcomeRecord) {
	m.outcomes[rec.Seq] = rec
	delete(m.pending, rec.Seq)
	if ch, ok := m.waiters[rec.Seq]; ok {
		close(ch)
		delete(m.waiters, rec.Seq)
	}
	for {
		next, ok := m.outcomes[m.foldedNext]
		if !ok {
			break
		}
		for _, w := range next.Winners {
			m.ledger[w.Client] += w.Payment
		}
		m.foldedNext++
	}
	if r := m.cfg.RetainOutcomes; r > 0 {
		for m.foldedNext-m.base > r {
			delete(m.outcomes, m.base)
			m.base++
		}
	}
	m.commitsSinceCkpt++
}

// crashLocked consults the crash-point hook; on true it kills the
// market (caller holds m.mu) and reports that the operation must abort.
func (m *Market) crashLocked(point string, seq int) bool {
	if m.cfg.Crash != nil && m.cfg.Crash(point, seq) {
		m.killLocked()
		return true
	}
	return false
}

// killLocked is the in-process SIGKILL: stop the workers, wake every
// blocked caller, and close the WAL file without flushing its buffer —
// whatever the commit protocol had durably written stays, everything
// else is gone. Group commits already in flight finish first: the kill
// lands just after their fsync, never inside it, so whether such a
// record survives does not depend on which goroutine reached the log
// first. Caller holds m.mu.
func (m *Market) killLocked() {
	m.killOnce.Do(func() {
		m.killedFlag.Store(true)
		m.cancel()
		close(m.killCh)
		if m.log != nil {
			m.commits.Wait()
			m.log.Abort()
		}
	})
}

// Killed reports whether the market died at a crash point.
func (m *Market) Killed() bool { return m.killedFlag.Load() }

// Dead returns a channel closed when the market dies at a crash point.
// A graceful Close never closes it; daemons select on it to exit when
// the market is gone.
func (m *Market) Dead() <-chan struct{} { return m.killCh }

// RecoveredFaults returns the number of WAL anomalies (torn tail,
// duplicate records) absorbed during recovery.
func (m *Market) RecoveredFaults() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.faults
}

// Submit acknowledges one auction submission and returns its sequence
// number. On a durable market the bid record is committed to the WAL
// before the acknowledgment — an acked submission survives any crash —
// and client names the submitter for the audit trail (it does not
// affect the auction). Submit then blocks under the service's queue
// backpressure until the instance is enqueued, ctx is done, or the
// market closes. A non-nil error with a valid sequence
// number (>= 0) means the submission is durably logged but was not
// queued in this process's lifetime; it will be solved on the next
// Open.
func (m *Market) Submit(ctx context.Context, client string, inst batch.Instance) (int, error) {
	seqs, err := m.submitAll(ctx, client, []batch.Instance{inst})
	if len(seqs) == 1 {
		return seqs[0], err
	}
	return -1, err
}

// SubmitBatch acknowledges several submissions at once, assigning them
// consecutive sequence numbers. All bid records ride one durability
// point — a single fsync, shared with concurrent commits under group
// commit — which is what makes batched ingest cheaper than a loop of
// Submits. On error the returned slice still carries a valid sequence
// number (>= 0) for every submission that was durably acknowledged.
func (m *Market) SubmitBatch(ctx context.Context, client string, insts []batch.Instance) ([]int, error) {
	return m.submitAll(ctx, client, insts)
}

func (m *Market) submitAll(ctx context.Context, client string, insts []batch.Instance) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(insts) == 0 {
		return nil, nil
	}
	for i := range insts {
		if m.cfg.Rule != nil {
			insts[i].Cfg.PaymentRule = *m.cfg.Rule
		}
		if m.cfg.Solver != nil {
			insts[i].Solver = *m.cfg.Solver
		}
		if insts[i].Set != nil && insts[i].Bids == nil {
			// Columnar submissions are solved through the shared Set (the batch
			// layer's warm-start path), but the WAL speaks rows: materialize
			// them once here so the logged record is byte-identical to a row
			// submission of the same population.
			insts[i].Bids = insts[i].Set.Bids()
		}
	}

	m.mu.Lock()
	if m.closed || m.killedFlag.Load() {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	seqs := make([]int, len(insts))
	var appendErr error
	n := 0 // submissions whose bid record is appended
	for ; n < len(insts); n++ {
		seq := m.next
		if m.log != nil {
			payload, err := appendBidRecord(m.enc[:0], seq, client, insts[n])
			m.enc = payload[:0]
			if err == nil {
				err = m.log.Append(payload)
			}
			if err != nil {
				appendErr = err
				break
			}
		}
		m.next = seq + 1
		m.pending[seq] = insts[n]
		seqs[n] = seq
	}
	if m.log != nil && n > 0 {
		// Wait for the covering fsync outside the lock, so concurrent
		// submitters and the consumer's commits can append (and, under
		// group commit, share the fsync) instead of queueing behind this
		// one's disk latency.
		if err := m.commitLocked(); err != nil {
			m.killLocked() // acknowledged nothing; a failing log is a dead market
			for _, seq := range seqs[:n] {
				delete(m.pending, seq)
			}
			m.mu.Unlock()
			return nil, err
		}
	}
	if appendErr != nil {
		m.mu.Unlock()
		for j := n; j < len(seqs); j++ {
			seqs[j] = -1
		}
		return seqs, appendErr
	}
	crashed := false
	for _, seq := range seqs {
		if m.crashLocked(CrashBidLogged, seq) {
			crashed = true
			break
		}
	}
	m.mu.Unlock()
	if crashed {
		return seqs, nil // durably acked; the next Open will solve them
	}

	// The enqueue happens outside the lock: queue backpressure must
	// never block the consumer's commits (which need the lock).
	for i, seq := range seqs {
		if err := m.svc.SubmitSeq(ctx, seq, insts[i]); err != nil {
			return seqs, err
		}
	}
	return seqs, nil
}

// commitLocked makes every record appended so far durable. It waits for
// the fsync with mu released, so concurrent submitters and the consumer
// keep appending meanwhile, and holds mu again on return. Caller holds
// m.mu and m.log is non-nil.
func (m *Market) commitLocked() error {
	m.commits.Add(1)
	m.mu.Unlock()
	err := m.log.Commit()
	m.commits.Done()
	m.mu.Lock()
	return err
}

// consume drains the service's outcomes and commits each one.
func (m *Market) consume() {
	defer close(m.consumerDone)
	for {
		select {
		case oc, ok := <-m.svc.Results():
			if !ok {
				return
			}
			if !m.commit(oc) {
				return
			}
		case <-m.killCh:
			return
		}
	}
}

// commit runs the durable commit protocol for one outcome. Reports
// false when the market died at a crash point mid-protocol.
func (m *Market) commit(oc batch.Outcome) bool {
	if oc.Err != nil && errors.Is(oc.Err, core.ErrCanceled) {
		// A cancellation is not a terminal outcome: the bid record stays
		// pending in the WAL and the next Open re-solves it. Never
		// persisted, so a canceled solve can never shadow a real one.
		return !m.killedFlag.Load()
	}
	rec := recordFromOutcome(oc)
	m.mu.Lock()
	if _, dup := m.outcomes[rec.Seq]; dup || rec.Seq < m.base {
		// Exactly-once guard: a sequence number commits once per market
		// lifetime, whatever the scheduler delivered.
		m.mu.Unlock()
		return true
	}
	if m.crashLocked(CrashOutcomeSolved, rec.Seq) {
		m.mu.Unlock()
		return false
	}
	if m.log != nil {
		// The outcome record is the whole commit: make it durable before
		// installing, waiting outside the lock like Submit does.
		payload, err := appendOutcomeRecord(m.enc[:0], &rec)
		m.enc = payload[:0]
		if err == nil {
			err = m.log.Append(payload)
		}
		if err == nil {
			err = m.commitLocked()
		}
		if err != nil {
			m.killLocked() // a failing log is a dead market, not a silent one
			m.mu.Unlock()
			return false
		}
		if _, dup := m.outcomes[rec.Seq]; dup {
			m.mu.Unlock()
			return true
		}
	}
	m.installLocked(rec)
	ok := true
	if m.log != nil && m.cfg.CheckpointEvery > 0 && m.commitsSinceCkpt >= m.cfg.CheckpointEvery {
		ok = m.checkpointLocked()
	}
	if ok && m.crashLocked(CrashPostCommit, rec.Seq) {
		ok = false
	}
	m.mu.Unlock()
	return ok
}

// checkpointLocked writes one checkpoint: rotate into a fresh
// checkpoint-flagged segment, append the folded-state snapshot as its
// first record, force it durable, then prune every covered segment.
// A crash at any point is safe: before the snapshot record lands, the
// empty checkpoint segment is recovery debris (discarded, full replay
// from the previous start); after it lands, recovery starts at the new
// checkpoint whether or not the prune ran. Reports false when the
// market died (crash point or log failure). Caller holds m.mu.
func (m *Market) checkpointLocked() bool {
	var start time.Time
	if m.cfg.Observer != nil {
		start = m.cfg.Now()
	}
	if err := m.log.Rotate(true); err != nil {
		m.killLocked()
		return false
	}
	if m.crashLocked(CrashCheckpointRotated, m.next) {
		return false
	}
	payload, err := m.encodeCheckpointLocked()
	if err == nil {
		err = m.log.Append(payload)
	}
	if err == nil {
		err = m.log.Commit()
	}
	if err != nil {
		m.killLocked()
		if o := m.cfg.Observer; o != nil {
			o.Observe(obs.Event{
				Kind: obs.EvWALCheckpoint, Client: -1, Bid: -1,
				Value: float64(m.next), OK: false,
			})
		}
		return false
	}
	m.lastCkptSeq = m.next
	m.commitsSinceCkpt = 0
	if m.crashLocked(CrashCheckpointWritten, m.next) {
		return false
	}
	pruned, err := m.log.Prune()
	if err != nil {
		m.killLocked()
		return false
	}
	if o := m.cfg.Observer; o != nil {
		o.Observe(obs.Event{
			Kind: obs.EvWALCheckpoint, Client: -1, Bid: -1,
			Value: float64(m.lastCkptSeq), Round: pruned, OK: true,
			Dur: m.cfg.Now().Sub(start),
		})
	}
	return true
}

// Outcome returns the committed outcome for seq. ok reports whether it
// has committed; a false ok with a nil error means the submission is
// still pending. A committed outcome evicted by the retention policy
// answers ErrPruned.
func (m *Market) Outcome(seq int) (OutcomeRecord, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec, ok := m.outcomes[seq]; ok {
		return rec, true, nil
	}
	if seq >= 0 && seq < m.base {
		return OutcomeRecord{}, false, ErrPruned
	}
	if seq < 0 || seq >= m.next {
		return OutcomeRecord{}, false, ErrUnknownSeq
	}
	return OutcomeRecord{}, false, nil
}

// Wait blocks until seq commits, ctx is done, or the market stops.
func (m *Market) Wait(ctx context.Context, seq int) (OutcomeRecord, error) {
	m.mu.Lock()
	if rec, ok := m.outcomes[seq]; ok {
		m.mu.Unlock()
		return rec, nil
	}
	if seq >= 0 && seq < m.base {
		m.mu.Unlock()
		return OutcomeRecord{}, ErrPruned
	}
	if seq < 0 || seq >= m.next {
		m.mu.Unlock()
		return OutcomeRecord{}, ErrUnknownSeq
	}
	ch, ok := m.waiters[seq]
	if !ok {
		ch = make(chan struct{})
		m.waiters[seq] = ch
	}
	m.mu.Unlock()

	select {
	case <-ch:
		m.mu.Lock()
		rec := m.outcomes[seq]
		m.mu.Unlock()
		return rec, nil
	case <-ctx.Done():
		return OutcomeRecord{}, context.Cause(ctx)
	case <-m.killCh:
		return OutcomeRecord{}, ErrClosed
	case <-m.consumerDone:
		// Graceful close commits everything solvable first; reaching
		// here means the market stopped with seq still pending.
		m.mu.Lock()
		rec, ok := m.outcomes[seq]
		m.mu.Unlock()
		if ok {
			return rec, nil
		}
		return OutcomeRecord{}, ErrClosed
	}
}

// ledgerLocked returns per-client cumulative payments: a copy of the
// incrementally folded frontier ledger, plus an on-demand fold of any
// committed outcomes waiting past a sequence gap. Both folds run in
// ascending sequence order, so the result is bit-identical to the full
// re-derivation this used to be, however commits interleaved. Caller
// holds m.mu.
func (m *Market) ledgerLocked() map[int]float64 {
	out := make(map[int]float64, len(m.ledger))
	for c, p := range m.ledger {
		out[c] = p
	}
	var tail []int
	for seq := range m.outcomes {
		if seq >= m.foldedNext {
			tail = append(tail, seq)
		}
	}
	sort.Ints(tail)
	for _, seq := range tail {
		for _, w := range m.outcomes[seq].Winners {
			out[w.Client] += w.Payment
		}
	}
	return out
}

// Ledger returns the per-client cumulative payments of every committed
// outcome.
func (m *Market) Ledger() map[int]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ledgerLocked()
}

// Counts returns the market's load figures: the next sequence number,
// committed outcomes (including ones the retention policy has since
// evicted — this is the lifetime total, not the retained window),
// pending (acknowledged, uncommitted) submissions, and the solve queue
// depth.
func (m *Market) Counts() (next, committed, pending, queueDepth int) {
	m.mu.Lock()
	next, committed, pending = m.next, len(m.outcomes)+m.base, len(m.pending)
	m.mu.Unlock()
	return next, committed, pending, m.svc.QueueDepth()
}

// WALInfo describes the durability directory of a market: its on-disk
// footprint, segment layout, and how much work the last recovery did.
type WALInfo struct {
	// Bytes is the total size of all live WAL segments.
	Bytes int64 `json:"wal_bytes"`
	// Segments is the number of live segment files.
	Segments int `json:"wal_segments"`
	// LastCheckpointSeq is the snapshot horizon (next sequence number)
	// of the newest checkpoint, -1 when no checkpoint exists.
	LastCheckpointSeq int `json:"last_checkpoint_seq"`
	// TailReplayed is the number of records the last recovery replayed
	// after its starting checkpoint (all of history when there was
	// none) — the restart-cost figure checkpoints exist to bound.
	TailReplayed int `json:"tail_replayed"`
	// Syncs counts fsyncs since open; with group commit, dividing the
	// commit count by it gives the realized coalescing factor.
	Syncs int64 `json:"wal_syncs"`
	// Records counts WAL records replayed at open plus appended since.
	Records int `json:"wal_records"`
}

// WALInfo reports the durability directory's current footprint. A
// volatile market returns the zero value.
func (m *Market) WALInfo() WALInfo {
	m.mu.Lock()
	last := m.lastCkptSeq
	tail := m.recoveredTail
	m.mu.Unlock()
	info := WALInfo{LastCheckpointSeq: last, TailReplayed: tail}
	if m.log != nil {
		st := m.log.Stats()
		info.Bytes = st.TotalBytes
		info.Segments = st.Segments
		info.Syncs = st.Syncs
		info.Records = st.Records
	}
	return info
}

// Close drains and stops the market: no new submissions, queued work is
// solved and committed, the WAL is synced and closed. Idempotent; safe
// after a kill.
func (m *Market) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.consumerDone
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	m.svc.Close()
	<-m.consumerDone

	m.mu.Lock()
	defer m.mu.Unlock()
	// Wake waiters on submissions that will never commit in this
	// process (killed mid-queue or canceled): Wait's consumerDone arm
	// handles them, but close their channels so no waiter sleeps on a
	// market with no consumer.
	for seq, ch := range m.waiters {
		close(ch)
		delete(m.waiters, seq)
	}
	if m.log != nil && !m.killedFlag.Load() {
		m.commits.Wait()
		return m.log.Close()
	}
	return nil
}
