package marketd

import (
	"bytes"
	"encoding/json"
)

// Snapshot renders the market's committed state — every retained
// outcome in sequence order plus the per-client ledger in client order
// — as canonical JSON. Two markets with identical state produce
// identical bytes, which is how the restart suite asserts bit-identical
// recovery against an uninterrupted golden run. The state is captured
// under the market's lock; the outcomes already folded into the ledger
// are then read back from the log without it. An outcome that cannot be
// read is left out and the failure reported in an "error" member, so
// such a snapshot never equals a healthy market's.
func (m *Market) Snapshot() []byte {
	m.mu.Lock()
	slots := make([]committed, 0, len(m.frames)+len(m.outcomes))
	for i, at := range m.frames {
		c := committed{rec: OutcomeRecord{Seq: m.base + i}, at: at}
		if at == noFrame {
			c.rec = m.resident[m.base+i]
		}
		slots = append(slots, c)
	}
	for _, seq := range sortedKeys(m.outcomes) {
		slots = append(slots, committed{rec: m.outcomes[seq].rec, at: noFrame})
	}
	ledger := m.ledgerLocked()
	m.mu.Unlock()

	outcomes := make([]OutcomeRecord, 0, len(slots))
	var failed string
	for _, c := range slots {
		if c.at != noFrame {
			rec, err := m.readOutcome(c.rec.Seq, c.at)
			if err != nil {
				if failed == "" {
					failed = err.Error()
				}
				continue
			}
			c.rec = rec
		}
		outcomes = append(outcomes, c.rec)
	}

	clients := sortedKeys(ledger)
	type ledgerLine struct {
		Client  int     `json:"client"`
		Payment float64 `json:"payment"`
	}
	lines := make([]ledgerLine, len(clients))
	for i, c := range clients {
		lines[i] = ledgerLine{Client: c, Payment: ledger[c]}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(struct {
		Outcomes []OutcomeRecord `json:"outcomes"`
		Ledger   []ledgerLine    `json:"ledger"`
		Error    string          `json:"error,omitempty"`
	}{outcomes, lines, failed})
	return buf.Bytes()
}
