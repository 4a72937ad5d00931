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
// The log is also the market's store of record. Once an outcome is
// folded into the ledger the market keeps only its frame's position in
// the log (a wal.Pos); Outcome, Wait, GET /v1/auctions/{seq} and
// Snapshot read and decode that frame on demand, with the market's lock
// released. Only outcomes waiting past a sequence gap stay decoded in
// memory. A Wait registered before the commit is handed its record at
// install, and the records of the last few commits that found no waiter
// are parked for the first Wait that asks, so the serving hot path does
// not read the disk.
//
// The serving fast path layers three optimizations on that protocol
// without changing its semantics:
//
//   - segmented WAL with checkpoints (Config.CheckpointEvery): every N
//     commits the market rotates into a checkpoint-flagged segment and
//     writes a snapshot record that is an index into the log: the folded
//     ledger, the retention window's bounds, and a (segment, offset)
//     locator for each retained outcome's record and each pending
//     submission's bid record. It then prunes the segments below both
//     the checkpoint and the oldest segment a locator points into.
//     Recovery opens at the newest checkpoint, restores the index
//     without decoding any outcome, and replays only the tail, so
//     restart cost is O(tail + retention window), not O(history). The
//     price is disk: the log keeps the retention window's bid and
//     outcome records, about one more window than the snapshot alone
//     would, and with RetainOutcomes 0 it keeps all of history;
//   - group commit: the WAL's Commit is the market's only durability
//     call, one per Submit (or SubmitBatch) and one per outcome, and
//     every durable market coalesces: a committer that finds no fsync in
//     flight leads one, and the committers that arrive meanwhile share
//     the next, so an auction costs at most two fsyncs and full
//     durability does not serialize producers on disk latency;
//   - one reflection-free codec (encode.go, decode.go): append encoders
//     write every record, the checkpoint and the hot responses
//     byte-identical to json.Marshal into reused buffers, and one
//     scanner with typed decoders reads them back, and the submit
//     bodies, exactly as encoding/json would. A logged submission's
//     bids are one base64 string of packed binary rows rather than row
//     objects, so logging a bid formats no float and a 100-bid record
//     is about a third of its row-object size; an outcome record
//     repeats its winners' clients and payments as packed pairs ahead
//     of its body, and a checkpoint's locators are packed too. Logs
//     written before any of these were packed still replay. Recovery
//     keeps each submission as a position until the log is scanned and
//     reads and decodes only the ones still pending, so a restart
//     decodes the checkpoint's ledger and packed locators, the packed
//     payments of the tail's outcome records (their bodies only where a
//     record has no packed payments, and in full only for the few still
//     waiting past a sequence gap) and the survivors' bids, and nothing
//     else.
package marketd

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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
	// GroupCommit has no effect: every durable market coalesces
	// concurrent Submit and outcome commits into shared fsyncs.
	//
	// Deprecated: group commit is the only commit path.
	GroupCommit bool
	// CheckpointEvery writes a checkpoint every this many committed
	// outcomes: rotate into a checkpoint segment, append a snapshot that
	// holds the folded ledger and locates each retained outcome and each
	// pending submission in the log, and prune the segments below both
	// the checkpoint and the oldest one it locates a record in. Recovery
	// then replays only the tail after the newest checkpoint. 0 disables
	// checkpoints: the WAL is a single unbounded segment (the legacy
	// layout) and recovery replays all of history.
	CheckpointEvery int
	// SegmentBytes and SegmentRecords bound plain segment size between
	// checkpoints (see wal.DirOptions); 0 disables that trigger.
	SegmentBytes   int64
	SegmentRecords int
	// RetainOutcomes bounds the servable per-auction history: once the
	// contiguous committed prefix outgrows it, the oldest outcomes are
	// evicted and served as ErrPruned (HTTP 410). Their payments stay
	// folded in the ledger. A retained outcome lives in the log; the
	// market holds its position, and checkpoints locate it. The window
	// therefore sets what the log keeps too: with checkpoints, pruning
	// stops at the segment of the oldest retained outcome (or pending
	// bid), so the log holds about one window of bid and outcome records
	// beyond the tail. 0 retains everything, in the log as well: no
	// segment is ever pruned.
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
	// rate_limited, admission_rejected, the WAL's group_commit,
	// wal_segment_rotated and wal_checkpoint) in addition to the batch and
	// per-auction streams. Some arrive while the market holds its lock: a
	// checkpoint rotates, commits and reports under it. An observer must
	// therefore return quickly and must not call back into the market.
	// Nil disables instrumentation.
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

	mu      sync.Mutex
	closed  bool
	next    int
	waiters map[int]*waiter
	faults  int // WAL anomalies absorbed during recovery

	// Acknowledged, not yet committed submissions: where the log holds
	// each one's bid record. A submission restored from a checkpoint that
	// embedded it has no frame (noFrame) and keeps its instance in
	// unlogged, so the next checkpoint can embed it again.
	pending  map[int]wal.Pos
	unlogged map[int]batch.Instance

	// Committed outcomes. Those not yet folded into the ledger (seq >=
	// foldedNext, waiting past a sequence gap) stay in memory in
	// outcomes. A folded one is only indexed: frames[seq-base] locates its
	// outcome record in the log, and reads decode it on demand. A folded
	// outcome the log holds no frame for — every outcome of a volatile
	// market, and one restored from a checkpoint that embedded it — has
	// noFrame there and stays in resident.
	outcomes map[int]committed
	frames   []wal.Pos
	resident map[int]OutcomeRecord

	// parked holds the records of the last maxParked commits that found
	// no waiter, oldest first in parkOrder, for the first Wait that asks:
	// a client that learns its seq from the submit ack often Waits just
	// after the commit, and reading its record back from the log would
	// put a disk read on every such request. Wait takes the record out,
	// so a market whose every seq was waited holds none.
	parked    map[int]OutcomeRecord
	parkOrder []int

	// Incremental ledger: the fold of every committed outcome with seq <
	// foldedNext, maintained frontier-style (strictly ascending seq
	// order) so it is bit-identical to the full re-derivation the ledger
	// used to be. base marks the retention floor: outcomes with seq <
	// base are evicted (always < foldedNext, so their payments are in
	// the ledger). Every seq in [base, foldedNext) has committed.
	ledger     map[int]float64
	foldedNext int
	base       int

	commitsSinceCkpt int    // commits since the last checkpoint
	lastCkptSeq      int    // snapshot horizon of the newest checkpoint, -1 if none
	recoveredTail    int    // records replayed by the last recovery
	enc              []byte // append-encoder scratch, reused under mu
}

// committed is an outcome not yet folded into the ledger, and where the
// log holds its outcome record (noFrame when it holds none).
type committed struct {
	rec OutcomeRecord
	at  wal.Pos
}

// maxParked bounds the records held for late Waits (see Market.parked):
// enough for the commits that land between a client's ack and its Wait
// under load, few enough that memory stays flat in history.
const maxParked = 64

// noFrame marks a record the log holds no frame for.
var noFrame = wal.Pos{Seg: -1, Off: -1}

// waiter is the rendezvous of the Waits on one pending seq: install
// fills rec and sets ok before closing ch, so a Wait registered before
// the commit receives its record without reading the log. Close closes
// ch with ok false.
type waiter struct {
	ch  chan struct{}
	rec OutcomeRecord
	ok  bool
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
		pending:      make(map[int]wal.Pos),
		unlogged:     make(map[int]batch.Instance),
		outcomes:     make(map[int]committed),
		resident:     make(map[int]OutcomeRecord),
		parked:       make(map[int]OutcomeRecord),
		waiters:      make(map[int]*waiter),
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
				Value: float64(m.foldedNext - m.base + len(m.outcomes)), Round: len(pendingInst),
				OK: m.faults == 0, Dur: cfg.Now().Sub(start),
			})
		}
	}

	go m.consume()

	// Re-submit survivors under their original sequence numbers, lowest
	// first. The consumer is already draining, so queue backpressure
	// cannot deadlock the replay however large the backlog is.
	for _, seq := range sortedKeys(pendingInst) {
		if err := m.svc.SubmitSeq(ctx, seq, pendingInst[seq]); err != nil {
			m.Close()
			return nil, fmt.Errorf("marketd: replaying seq %d: %w", seq, err)
		}
	}
	return m, nil
}

// recovery is what the replay scan has found but not yet turned into
// market state: the submissions with no outcome so far, as bid record
// frames or as bytes embedded in the checkpoint, and the checkpoint's
// unfolded outcomes, which are read once the scan is over.
type recovery struct {
	pend     map[int]wal.Pos
	embedded map[int][]byte
	late     map[int]wal.Pos
	scratch  []byte // replayPayments' base64 buffer
}

// replayCommitted reports whether seq's outcome has turned up in the
// replay so far: folded by the checkpoint, located by it, or in the
// tail.
func (m *Market) replayCommitted(rc *recovery, seq int) bool {
	if seq < m.foldedNext {
		return true
	}
	if _, ok := m.outcomes[seq]; ok {
		return true
	}
	_, ok := rc.late[seq]
	return ok
}

// recover opens the WAL directory, replays its records into the
// market's state, and returns the logged-but-uncommitted instances
// keyed by sequence number. When the directory has a valid checkpoint,
// the wal layer starts replay there: the first record is the snapshot,
// every later record the tail. Replay peeks each record's envelope and
// reads, of the tail's outcome records, only each one's winners'
// clients and payments, from the packed member the encoder writes right
// after the seq, or from the body of a record without one. A pending
// locator or entry of the checkpoint whose seq the checkpoint already
// counts as committed is dropped as a duplicate. The checkpoint
// restores the ledger and the index of retained outcomes without
// decoding any of them. A submission — a tail bid record or a pending
// locator of the checkpoint — is kept as a position until the scan is
// over, and its bid record is read and decoded only if no outcome
// arrived for it, so superseded bids are never read twice or decoded;
// the pay records older logs carry are skipped unread. Tail outcomes
// fold into the ledger once the scan is over, in ascending sequence
// order as the live market folds them; a folded one is kept as its
// position, and one still waiting past a sequence gap is read back and
// decoded in full, as the checkpoint's unfolded outcomes are. Runs
// before the consumer starts, so no locking is needed.
func (m *Market) recover() (map[int]batch.Instance, error) {
	rc := &recovery{
		pend:     make(map[int]wal.Pos),
		embedded: make(map[int][]byte),
		late:     make(map[int]wal.Pos),
	}
	first := true
	replay := func(pos wal.Pos, payload []byte) error {
		typ, seq, end, err := peekEnvelope(payload)
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
			return m.restoreCheckpoint(payload, rc)
		case recBid:
			_, dup := rc.pend[seq]
			if _, emb := rc.embedded[seq]; dup || emb || m.replayCommitted(rc, seq) {
				m.fault("dup_record", float64(seq))
				return nil
			}
			rc.pend[seq] = pos
			m.next = max(m.next, seq+1)
			return nil
		case recPay:
			// The per-winner write-ahead older logs carry; the outcome
			// record holds every payment, so there is nothing to replay.
			return nil
		case recOutcome:
			if m.replayCommitted(rc, seq) {
				m.fault("dup_record", float64(seq))
				return nil
			}
			// The fold reads only the payments; an outcome still past a gap
			// after it is read back in full.
			o, err := replayPayments(payload, seq, end, &rc.scratch)
			if err != nil {
				return err
			}
			m.outcomes[seq] = committed{rec: o, at: pos}
			m.commitsSinceCkpt++
			delete(rc.pend, seq)
			delete(rc.embedded, seq)
			m.next = max(m.next, seq+1)
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

	// The checkpoint's outcomes past a sequence gap join the tail's, then
	// the frontier folds as far as it reaches.
	for seq, at := range rc.late {
		rec, err := m.readOutcome(seq, at)
		if err != nil {
			return nil, err
		}
		m.outcomes[seq] = committed{rec: rec, at: at}
	}
	m.foldLocked()
	// A tail outcome still past a gap holds only its payments: read it
	// back in full, as the checkpoint's were, before Outcome, Wait or a
	// checkpoint can see it.
	for seq, c := range m.outcomes {
		if _, full := rc.late[seq]; full || c.at == noFrame {
			continue
		}
		rec, err := m.readOutcome(seq, c.at)
		if err != nil {
			return nil, err
		}
		m.outcomes[seq] = committed{rec: rec, at: c.at}
	}

	// The survivors: read and decode each once, now that no outcome can
	// arrive, lowest sequence first.
	seqs := make([]int, 0, len(rc.pend)+len(rc.embedded))
	for seq := range rc.pend {
		seqs = append(seqs, seq)
	}
	for seq := range rc.embedded {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	pendingInst := make(map[int]batch.Instance, len(seqs))
	for _, seq := range seqs {
		raw, at := rc.embedded[seq], noFrame
		if raw == nil {
			at = rc.pend[seq]
			if raw, err = m.readRecord(recBid, seq, at); err != nil {
				return nil, err
			}
		}
		inst, err := decodePending(raw)
		if err != nil {
			return nil, fmt.Errorf("marketd: pending seq %d: %w", seq, err)
		}
		pendingInst[seq] = inst
		// The pending set lives in m.pending too: a checkpoint written
		// after this restart locates each one's bid record, or embeds the
		// ones the log holds no bid record for.
		m.pending[seq] = at
		if at == noFrame {
			m.unlogged[seq] = inst
		}
	}
	return pendingInst, nil
}

// readRecord reads the log frame at at and checks that it is the
// record of type typ for seq, so a stale or damaged locator can never
// hand back another record.
func (m *Market) readRecord(typ string, seq int, at wal.Pos) ([]byte, error) {
	payload, err := m.log.ReadAt(at)
	if err != nil {
		return nil, fmt.Errorf("marketd: reading %s %d: %w", typ, seq, err)
	}
	if got, gotSeq, _, err := peekEnvelope(payload); err != nil || got != typ || gotSeq != seq {
		return nil, fmt.Errorf("marketd: frame at %+v is not the %s record of seq %d", at, typ, seq)
	}
	return payload, nil
}

// readOutcome reads and decodes the committed outcome record of seq.
func (m *Market) readOutcome(seq int, at wal.Pos) (OutcomeRecord, error) {
	payload, err := m.readRecord(recOutcome, seq, at)
	if err != nil {
		return OutcomeRecord{}, err
	}
	r, err := decodeRecord(payload)
	if err != nil {
		return OutcomeRecord{}, err
	}
	if r.Outcome == nil || r.Outcome.Seq != seq {
		return OutcomeRecord{}, fmt.Errorf("marketd: outcome record %d without a body of that seq", seq)
	}
	return *r.Outcome, nil
}

// walOptions maps the market configuration onto the WAL directory
// options, wiring rotation and group-commit telemetry to the observer.
func (m *Market) walOptions() wal.DirOptions {
	opts := wal.DirOptions{
		NoSync:         m.cfg.NoSync,
		SegmentBytes:   m.cfg.SegmentBytes,
		SegmentRecords: m.cfg.SegmentRecords,
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

// installLocked commits an outcome record, whose log frame is at (noFrame
// on a volatile market), to in-memory state: any waiters (or, with none,
// the parked records), the incremental ledger and the outcome index.
// Callers hold m.mu.
func (m *Market) installLocked(rec OutcomeRecord, at wal.Pos) {
	m.outcomes[rec.Seq] = committed{rec: rec, at: at}
	delete(m.pending, rec.Seq)
	delete(m.unlogged, rec.Seq)
	if w, ok := m.waiters[rec.Seq]; ok {
		w.rec, w.ok = rec, true
		close(w.ch)
		delete(m.waiters, rec.Seq)
	} else if m.log != nil {
		m.parked[rec.Seq] = rec
		m.parkOrder = append(m.parkOrder, rec.Seq)
		if n := len(m.parkOrder) - maxParked; n > 0 {
			for _, seq := range m.parkOrder[:n] {
				delete(m.parked, seq)
			}
			m.parkOrder = m.parkOrder[n:]
		}
	}
	m.foldLocked()
	m.commitsSinceCkpt++
}

// foldLocked folds the committed outcomes at the frontier into the
// ledger. The ledger folds strictly along the contiguous committed
// frontier (ascending seq) — float addition is order-sensitive, and
// commit order varies with worker scheduling while frontier order does
// not, so the incremental fold stays bit-identical to a full
// re-derivation. Outcomes past a gap wait in m.outcomes until the
// frontier reaches them. A folded outcome leaves memory for the index
// (frames, or resident when the log holds no frame for it), and once
// folded, outcomes older than the retention window are evicted. Callers
// hold m.mu (or, during recovery, exclusive access).
func (m *Market) foldLocked() {
	for {
		c, ok := m.outcomes[m.foldedNext]
		if !ok {
			break
		}
		for _, w := range c.rec.Winners {
			m.ledger[w.Client] += w.Payment
		}
		if c.at == noFrame {
			m.resident[m.foldedNext] = c.rec
		}
		m.frames = append(m.frames, c.at)
		delete(m.outcomes, m.foldedNext)
		m.foldedNext++
	}
	if r := m.cfg.RetainOutcomes; r > 0 && m.foldedNext-m.base > r {
		n := m.foldedNext - m.base - r
		for seq := m.base; seq < m.base+n; seq++ {
			delete(m.resident, seq)
			delete(m.parked, seq)
		}
		m.frames = m.frames[n:]
		m.base += n
	}
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
// insts is left as the caller passed it.
func (m *Market) SubmitBatch(ctx context.Context, client string, insts []batch.Instance) ([]int, error) {
	return m.submitAll(ctx, client, slices.Clone(insts))
}

// submitAll acknowledges and enqueues insts, which it owns: it writes
// the market's Rule and Solver overrides and a Set's materialized rows
// into the elements.
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
		at := noFrame
		if m.log != nil {
			payload, err := appendBidRecord(m.enc[:0], seq, client, insts[n])
			m.enc = payload[:0]
			if err == nil {
				at, err = m.log.Append(payload)
			}
			if err != nil {
				appendErr = err
				break
			}
		}
		m.next = seq + 1
		m.pending[seq] = at
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
	if m.committedLocked(rec.Seq) {
		// Exactly-once guard: a sequence number commits once per market
		// lifetime, whatever the scheduler delivered.
		m.mu.Unlock()
		return true
	}
	if m.crashLocked(CrashOutcomeSolved, rec.Seq) {
		m.mu.Unlock()
		return false
	}
	at := noFrame
	if m.log != nil {
		// The outcome record is the whole commit: make it durable before
		// installing, waiting outside the lock like Submit does.
		payload, err := appendOutcomeRecord(m.enc[:0], &rec)
		m.enc = payload[:0]
		if err == nil {
			at, err = m.log.Append(payload)
		}
		if err == nil {
			err = m.commitLocked()
		}
		if err != nil {
			m.killLocked() // a failing log is a dead market, not a silent one
			m.mu.Unlock()
			return false
		}
		if m.committedLocked(rec.Seq) {
			m.mu.Unlock()
			return true
		}
	}
	m.installLocked(rec, at)
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

// committedLocked reports whether seq has committed in this market's
// lifetime (folded, evicted, or waiting past a gap). Caller holds m.mu.
func (m *Market) committedLocked(seq int) bool {
	if seq < m.foldedNext {
		return true
	}
	_, ok := m.outcomes[seq]
	return ok
}

// checkpointLocked writes one checkpoint: rotate into a fresh
// checkpoint-flagged segment, append the snapshot (ledger and the index
// of retained outcomes and pending submissions) as its first record,
// force it durable, then prune the segments below both the checkpoint
// and the oldest segment it locates a record in. A crash at any point
// is safe: before the snapshot record lands, the empty checkpoint
// segment is recovery debris (discarded, replay from the previous start,
// whose located records the last prune kept); after it lands, recovery
// starts at the new checkpoint whether or not the prune ran. Reports
// false when the market died (crash point or log failure). Caller holds
// m.mu.
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
	payload, floor, err := m.encodeCheckpointLocked()
	if err == nil {
		_, err = m.log.Append(payload)
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
	pruned, err := m.log.Prune(floor)
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

// lookupLocked finds seq's outcome. done reports whether it has
// committed; rec holds it when it is in memory, else at locates its
// frame for the caller to read with m.mu released. Caller holds m.mu.
func (m *Market) lookupLocked(seq int) (rec OutcomeRecord, at wal.Pos, done bool, err error) {
	at = noFrame
	if c, ok := m.outcomes[seq]; ok {
		return c.rec, at, true, nil
	}
	switch {
	case seq >= 0 && seq < m.base:
		return rec, at, false, ErrPruned
	case seq < 0 || seq >= m.next:
		return rec, at, false, ErrUnknownSeq
	case seq < m.foldedNext:
		if r, ok := m.resident[seq]; ok {
			return r, at, true, nil
		}
		if r, ok := m.parked[seq]; ok {
			return r, at, true, nil
		}
		return rec, m.frames[seq-m.base], true, nil
	}
	return rec, at, false, nil
}

// readFolded reads a folded outcome's frame, without m.mu. A read that
// fails because the retention floor passed seq meanwhile (a checkpoint
// pruned the segment) answers ErrPruned, as it would had it come a
// moment later.
func (m *Market) readFolded(seq int, at wal.Pos) (OutcomeRecord, error) {
	rec, err := m.readOutcome(seq, at)
	if err != nil {
		m.mu.Lock()
		pruned := seq < m.base
		m.mu.Unlock()
		if pruned {
			return OutcomeRecord{}, ErrPruned
		}
	}
	return rec, err
}

// Outcome returns the committed outcome for seq. ok reports whether it
// has committed; a false ok with a nil error means the submission is
// still pending. A committed outcome evicted by the retention policy
// answers ErrPruned. An outcome already folded into the ledger is read
// back from the log, unless it is still parked for a late Wait.
func (m *Market) Outcome(seq int) (OutcomeRecord, bool, error) {
	m.mu.Lock()
	rec, at, done, err := m.lookupLocked(seq)
	m.mu.Unlock()
	if at != noFrame {
		rec, err = m.readFolded(seq, at)
		done = err == nil
	}
	return rec, done, err
}

// Wait blocks until seq commits, ctx is done, or the market stops. A
// Wait that starts before the commit receives the record as it is
// installed. One that starts after takes the record parked for it when
// its commit is among the last maxParked that found no waiter, and
// otherwise reads it back from the log as Outcome does.
func (m *Market) Wait(ctx context.Context, seq int) (OutcomeRecord, error) {
	m.mu.Lock()
	rec, at, done, err := m.lookupLocked(seq)
	if err != nil || done {
		delete(m.parked, seq) // the first Wait takes a parked record
		m.mu.Unlock()
		if at != noFrame {
			return m.readFolded(seq, at)
		}
		return rec, err
	}
	w, ok := m.waiters[seq]
	if !ok {
		w = &waiter{ch: make(chan struct{})}
		m.waiters[seq] = w
	}
	m.mu.Unlock()

	select {
	case <-w.ch:
		if w.ok {
			return w.rec, nil
		}
	case <-ctx.Done():
		return OutcomeRecord{}, context.Cause(ctx)
	case <-m.killCh:
		return OutcomeRecord{}, ErrClosed
	case <-m.consumerDone:
	}
	// Graceful close commits everything solvable first; reaching here
	// means the market stopped, perhaps with seq still pending.
	rec, done, err = m.Outcome(seq)
	if err == nil && !done {
		err = ErrClosed
	}
	return rec, err
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
	for _, seq := range sortedKeys(m.outcomes) {
		for _, w := range m.outcomes[seq].rec.Winners {
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
	next, committed, pending = m.next, m.foldedNext+len(m.outcomes), len(m.pending)
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
	// Syncs counts fsyncs since open. Every durable market coalesces its
	// commits, so dividing the commit count by it gives the realized
	// coalescing factor.
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
	for seq, w := range m.waiters {
		close(w.ch)
		delete(m.waiters, seq)
	}
	if m.log != nil && !m.killedFlag.Load() {
		m.commits.Wait()
		return m.log.Close()
	}
	return nil
}
