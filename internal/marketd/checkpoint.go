package marketd

import (
	"fmt"
	"math"
	"sort"

	"github.com/fedauction/afl/internal/wal"
)

// recCheckpoint is the record type of a checkpoint snapshot: always the
// first record of a checkpoint-flagged segment. It holds the folded
// ledger and an index into the log — where each retained outcome and
// each pending submission is — so recovery starts here and never
// replays the segments before it.
const recCheckpoint = "checkpoint"

// ledgerEntry is one client's cumulative payment inside a checkpoint.
type ledgerEntry struct {
	Client  int     `json:"client"`
	Payment float64 `json:"payment"`
}

// pendingEntry is one acknowledged-but-uncommitted submission embedded
// in a checkpoint: the bid record's durable content, for a submission
// whose bid record the log no longer holds.
type pendingEntry struct {
	Seq    int         `json:"seq"`
	Bids   packedBids  `json:"bids,omitempty"`
	Cfg    *ConfigWire `json:"cfg,omitempty"`
	Solver string      `json:"solver,omitempty"`
}

// frameRef locates the log frame of one sequence number's record: an
// outcome record or a bid record.
type frameRef struct {
	Seq int   `json:"seq"`
	Seg int   `json:"seg"`
	Off int64 `json:"off"`
}

func (f frameRef) pos() wal.Pos { return wal.Pos{Seg: f.Seg, Off: f.Off} }

// frameRefs is a checkpoint's locator list. On the wire it is one
// string of packed rows (packed.go), each locator's seq, segment and
// offset as varints: about 9–11 bytes a locator against about 36 as a
// JSON object. Checkpoints written before locators were packed hold an
// array of locator objects under the same key; decoding reads both. The
// methods make encoding/json read and write the same form, so it stays
// the reference the append encoder and the reader are tested against.
type frameRefs []frameRef

// MarshalJSON writes the packed form.
func (f frameRefs) MarshalJSON() ([]byte, error) { return appendRows(nil, locatorRow, f, locatorWords) }

// UnmarshalJSON reads the packed form or, from older checkpoints, the
// locator objects.
func (f *frameRefs) UnmarshalJSON(data []byte) error {
	return unmarshalPacked(data, (*[]frameRef)(f), locatorRow, wordsLocator)
}

// checkpointRecord is the market's state at snapshot time. Seq carries
// the next sequence number (the snapshot horizon); Base and FoldedNext
// delimit the retained outcome window exactly as the live market holds
// it. Ledger is the frontier fold over every committed sequence below
// FoldedNext — including outcomes the retention policy already evicted,
// which is why it is restored verbatim rather than refolded.
//
// Every retained outcome and every pending submission is in exactly one
// of two forms. OutcomeAt and PendingAt locate its record's frame in the
// log; Outcomes and Pending embed the record itself, which the snapshot
// does only when the log holds no frame for it. That happens only for
// records restored from a checkpoint written before checkpoints pointed
// into the log, which embedded everything, so one restore path reads
// both forms.
type checkpointRecord struct {
	Type       string          `json:"type"`
	Seq        int             `json:"seq"`
	Base       int             `json:"base"`
	FoldedNext int             `json:"folded_next"`
	Ledger     []ledgerEntry   `json:"ledger,omitempty"`
	Outcomes   []OutcomeRecord `json:"outcomes,omitempty"`
	Pending    []pendingEntry  `json:"pending,omitempty"`
	OutcomeAt  frameRefs       `json:"outcome_at,omitempty"`
	PendingAt  frameRefs       `json:"pending_at,omitempty"`
}

// encodeCheckpointLocked encodes the market's current state into m.enc's
// spare capacity, and reports the oldest segment the snapshot locates a
// record in (math.MaxInt when it locates none): the floor below which
// pruning may delete. Caller holds m.mu.
func (m *Market) encodeCheckpointLocked() ([]byte, int, error) {
	rec := checkpointRecord{
		Type:       recCheckpoint,
		Seq:        m.next,
		Base:       m.base,
		FoldedNext: m.foldedNext,
	}
	floor := math.MaxInt
	locate := func(refs []frameRef, seq int, at wal.Pos) []frameRef {
		floor = min(floor, at.Seg)
		return append(refs, frameRef{Seq: seq, Seg: at.Seg, Off: at.Off})
	}

	clients := sortedKeys(m.ledger)
	rec.Ledger = make([]ledgerEntry, len(clients))
	for i, c := range clients {
		rec.Ledger[i] = ledgerEntry{Client: c, Payment: m.ledger[c]}
	}

	rec.OutcomeAt = make([]frameRef, 0, len(m.frames)+len(m.outcomes))
	for i, at := range m.frames {
		seq := m.base + i
		if at == noFrame {
			rec.Outcomes = append(rec.Outcomes, m.resident[seq])
			continue
		}
		rec.OutcomeAt = locate(rec.OutcomeAt, seq, at)
	}
	for _, seq := range sortedKeys(m.outcomes) {
		c := m.outcomes[seq]
		if c.at == noFrame {
			rec.Outcomes = append(rec.Outcomes, c.rec)
			continue
		}
		rec.OutcomeAt = locate(rec.OutcomeAt, seq, c.at)
	}

	for _, seq := range sortedKeys(m.pending) {
		if at := m.pending[seq]; at != noFrame {
			rec.PendingAt = locate(rec.PendingAt, seq, at)
			continue
		}
		inst := m.unlogged[seq]
		cw, err := FromConfig(inst.Cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("marketd: checkpointing pending seq %d: %w", seq, err)
		}
		rec.Pending = append(rec.Pending, pendingEntry{
			Seq: seq, Bids: inst.Bids, Cfg: &cw, Solver: solverWireName(inst.Solver),
		})
	}
	payload, err := appendCheckpoint(m.enc[:0], &rec)
	return payload, floor, err
}

// sortedKeys returns the keys of a seq-keyed map in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// restoreCheckpoint loads a checkpoint snapshot into the market's state
// and into rc, the recovery's list of what is still to be read. It
// decodes the ledger and the locators; an embedded outcome (only old
// checkpoints carry them) is decoded too, but a located one is not: a
// folded outcome stays a position until a read asks for it, and an
// unfolded one is read after the scan. Pending entries are not decoded
// here either — most commit later in the tail, and recovery decodes
// only the survivors once the scan is over. Runs during recovery,
// before the consumer starts.
func (m *Market) restoreCheckpoint(payload []byte, rc *recovery) error {
	next := 0
	rec, err := decodeCheckpoint(payload, func(seq int, raw []byte) {
		rc.embedded[seq] = append([]byte(nil), raw...)
		next = max(next, seq+1)
	})
	if err != nil {
		return err
	}
	if rec.Base < 0 || rec.Base > rec.FoldedNext || rec.FoldedNext > rec.Seq {
		return fmt.Errorf("marketd: checkpoint window [%d, %d) outside [0, %d)", rec.Base, rec.FoldedNext, rec.Seq)
	}
	m.base = rec.Base
	m.foldedNext = rec.FoldedNext
	m.lastCkptSeq = rec.Seq
	for _, l := range rec.Ledger {
		m.ledger[l.Client] = l.Payment
	}
	m.frames = make([]wal.Pos, rec.FoldedNext-rec.Base)
	for i := range m.frames {
		m.frames[i] = noFrame
	}
	window := func(seq int) error {
		if seq < rec.Base || seq >= rec.Seq {
			return fmt.Errorf("marketd: checkpoint outcome %d outside its window [%d, %d)", seq, rec.Base, rec.Seq)
		}
		return nil
	}
	for _, oc := range rec.Outcomes {
		if err := window(oc.Seq); err != nil {
			return err
		}
		if oc.Seq < rec.FoldedNext {
			m.resident[oc.Seq] = oc
		} else {
			m.outcomes[oc.Seq] = committed{rec: oc, at: noFrame}
		}
	}
	for _, f := range rec.OutcomeAt {
		if err := window(f.Seq); err != nil {
			return err
		}
		if f.Seq < rec.FoldedNext {
			m.frames[f.Seq-rec.Base] = f.pos()
		} else {
			rc.late[f.Seq] = f.pos()
		}
	}
	for i, at := range m.frames {
		if _, ok := m.resident[rec.Base+i]; !ok && at == noFrame {
			return fmt.Errorf("marketd: checkpoint holds no record of retained outcome %d", rec.Base+i)
		}
	}
	// A submission whose outcome the snapshot folds or locates has
	// committed: listed as pending too, it would be re-solved on every
	// restart and never leave the pending set, since commit drops the
	// outcome of a committed seq. The market never writes such a
	// snapshot, but a damaged one is absorbed like a duplicate bid record.
	for _, f := range rec.PendingAt {
		if m.replayCommitted(rc, f.Seq) {
			m.fault("dup_record", float64(f.Seq))
			continue
		}
		rc.pend[f.Seq] = f.pos()
		next = max(next, f.Seq+1)
	}
	for _, seq := range sortedKeys(rc.embedded) {
		if m.replayCommitted(rc, seq) {
			m.fault("dup_record", float64(seq))
			delete(rc.embedded, seq)
		}
	}
	m.next = max(rec.Seq, next)
	return nil
}
