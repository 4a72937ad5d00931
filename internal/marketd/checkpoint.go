package marketd

import (
	"fmt"
	"sort"

	"github.com/fedauction/afl/internal/core"
)

// recCheckpoint is the record type of a checkpoint snapshot: always the
// first record of a checkpoint-flagged segment, embedding everything
// recovery needs so that every earlier segment becomes prunable.
const recCheckpoint = "checkpoint"

// ledgerEntry is one client's cumulative payment inside a checkpoint.
type ledgerEntry struct {
	Client  int     `json:"client"`
	Payment float64 `json:"payment"`
}

// pendingEntry is one acknowledged-but-uncommitted submission inside a
// checkpoint: the bid record's durable content re-homed into the new
// segment, so pruning the segment holding the original bid record
// cannot lose the submission.
type pendingEntry struct {
	Seq    int         `json:"seq"`
	Bids   []core.Bid  `json:"bids,omitempty"`
	Cfg    *ConfigWire `json:"cfg,omitempty"`
	Solver string      `json:"solver,omitempty"`
}

// checkpointRecord is the folded state of the market at snapshot time.
// Seq carries the next sequence number (the snapshot horizon); Base and
// FoldedNext delimit the retained outcome window exactly as the live
// market holds it, so recovery from a checkpoint reconstructs the same
// state object-for-object. Ledger is the frontier fold over every
// committed sequence below FoldedNext — including outcomes the
// retention policy already evicted, which is why it must be restored
// verbatim rather than refolded.
type checkpointRecord struct {
	Type       string          `json:"type"`
	Seq        int             `json:"seq"`
	Base       int             `json:"base"`
	FoldedNext int             `json:"folded_next"`
	Ledger     []ledgerEntry   `json:"ledger,omitempty"`
	Outcomes   []OutcomeRecord `json:"outcomes,omitempty"`
	Pending    []pendingEntry  `json:"pending,omitempty"`
}

// encodeCheckpointLocked encodes the market's current folded state into
// m.enc's spare capacity. A snapshot dwarfs every record, so when it
// outgrows m.enc it gets a buffer of its own, which is not kept: m.enc
// stays record-sized between checkpoints. The append encoder writes
// what json.Marshal would, so checkpoints written before it existed
// restore unchanged. Caller holds m.mu.
func (m *Market) encodeCheckpointLocked() ([]byte, error) {
	rec := checkpointRecord{
		Type:       recCheckpoint,
		Seq:        m.next,
		Base:       m.base,
		FoldedNext: m.foldedNext,
	}

	clients := make([]int, 0, len(m.ledger))
	for c := range m.ledger {
		clients = append(clients, c)
	}
	sort.Ints(clients)
	for _, c := range clients {
		rec.Ledger = append(rec.Ledger, ledgerEntry{Client: c, Payment: m.ledger[c]})
	}

	seqs := make([]int, 0, len(m.outcomes))
	for seq := range m.outcomes {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		rec.Outcomes = append(rec.Outcomes, m.outcomes[seq])
	}

	pend := make([]int, 0, len(m.pending))
	for seq := range m.pending {
		pend = append(pend, seq)
	}
	sort.Ints(pend)
	for _, seq := range pend {
		inst := m.pending[seq]
		cw, err := FromConfig(inst.Cfg)
		if err != nil {
			return nil, fmt.Errorf("marketd: checkpointing pending seq %d: %w", seq, err)
		}
		rec.Pending = append(rec.Pending, pendingEntry{
			Seq: seq, Bids: inst.Bids, Cfg: &cw, Solver: solverWireName(inst.Solver),
		})
	}
	return appendCheckpoint(m.enc[:0], &rec)
}

// restoreCheckpoint loads a checkpoint snapshot into the market's state.
// Runs during recovery, before the consumer starts. The pending entries
// are not decoded here: keep receives each one's seq and raw bytes
// (aliasing payload), because most of them commit later in the tail and
// recovery decodes only the survivors, once the scan is over.
func (m *Market) restoreCheckpoint(payload []byte, keep func(seq int, raw []byte)) error {
	next := 0
	rec, err := decodeCheckpoint(payload, func(seq int, raw []byte) {
		keep(seq, raw)
		next = max(next, seq+1)
	})
	if err != nil {
		return err
	}
	m.next = max(rec.Seq, next)
	m.base = rec.Base
	m.foldedNext = rec.FoldedNext
	m.lastCkptSeq = rec.Seq
	for _, l := range rec.Ledger {
		m.ledger[l.Client] = l.Payment
	}
	for _, oc := range rec.Outcomes {
		m.outcomes[oc.Seq] = oc
	}
	return nil
}
