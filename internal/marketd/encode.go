package marketd

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
)

// Append-style encoders for the WAL records, the checkpoint and the hot
// HTTP responses. They produce byte-for-byte the same JSON as
// json.Marshal on the same structs (locked in by TestEncodeDifferential),
// but append into a caller-owned buffer, so a committed auction costs a
// small constant number of allocations instead of one tree of them per
// record. The commit and checkpoint paths reuse one scratch buffer per
// market under m.mu. Field order, omitempty semantics and float
// formatting all mirror encoding/json, so logs written by either
// implementation replay identically. decode.go holds the inverse: one
// reflection-free reader for everything these write.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with
// encoding/json's default (HTML-escaping) rules: ", \, control
// characters, <, >, &, U+2028/U+2029 and invalid UTF-8 are escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}

// appendJSONFloat appends f with encoding/json's float encoder: 'f'
// format except for magnitudes below 1e-6 or at/above 1e21, which use
// 'e' with the exponent's leading zero stripped. Non-finite values are
// not representable in JSON and report an error, as json.Marshal does.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("marketd: unsupported float value %v in WAL record", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

func appendBid(dst []byte, b core.Bid) ([]byte, error) {
	var err error
	dst = append(dst, `{"Client":`...)
	dst = strconv.AppendInt(dst, int64(b.Client), 10)
	dst = append(dst, `,"Index":`...)
	dst = strconv.AppendInt(dst, int64(b.Index), 10)
	dst = append(dst, `,"Price":`...)
	if dst, err = appendJSONFloat(dst, b.Price); err != nil {
		return dst, err
	}
	dst = append(dst, `,"TrueCost":`...)
	if dst, err = appendJSONFloat(dst, b.TrueCost); err != nil {
		return dst, err
	}
	dst = append(dst, `,"Theta":`...)
	if dst, err = appendJSONFloat(dst, b.Theta); err != nil {
		return dst, err
	}
	dst = append(dst, `,"Start":`...)
	dst = strconv.AppendInt(dst, int64(b.Start), 10)
	dst = append(dst, `,"End":`...)
	dst = strconv.AppendInt(dst, int64(b.End), 10)
	dst = append(dst, `,"Rounds":`...)
	dst = strconv.AppendInt(dst, int64(b.Rounds), 10)
	dst = append(dst, `,"CompTime":`...)
	if dst, err = appendJSONFloat(dst, b.CompTime); err != nil {
		return dst, err
	}
	dst = append(dst, `,"CommTime":`...)
	if dst, err = appendJSONFloat(dst, b.CommTime); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

func appendConfigWire(dst []byte, c ConfigWire) ([]byte, error) {
	var err error
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(c.T), 10)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(c.K), 10)
	if c.TMax != 0 {
		dst = append(dst, `,"t_max":`...)
		if dst, err = appendJSONFloat(dst, c.TMax); err != nil {
			return dst, err
		}
	}
	if c.PaymentRule != 0 {
		dst = append(dst, `,"payment_rule":`...)
		dst = strconv.AppendInt(dst, int64(c.PaymentRule), 10)
	}
	if c.ReservePrice != 0 {
		dst = append(dst, `,"reserve_price":`...)
		if dst, err = appendJSONFloat(dst, c.ReservePrice); err != nil {
			return dst, err
		}
	}
	if c.ScheduleRule != 0 {
		dst = append(dst, `,"schedule_rule":`...)
		dst = strconv.AppendInt(dst, int64(c.ScheduleRule), 10)
	}
	if c.ExcludeOwnBids {
		dst = append(dst, `,"exclude_own_bids":true`...)
	}
	return append(dst, '}'), nil
}

func appendWinner(dst []byte, w WinnerRecord) ([]byte, error) {
	var err error
	dst = append(dst, `{"bid_index":`...)
	dst = strconv.AppendInt(dst, int64(w.BidIndex), 10)
	dst = append(dst, `,"client":`...)
	dst = strconv.AppendInt(dst, int64(w.Client), 10)
	dst = append(dst, `,"index":`...)
	dst = strconv.AppendInt(dst, int64(w.Index), 10)
	dst = append(dst, `,"price":`...)
	if dst, err = appendJSONFloat(dst, w.Price); err != nil {
		return dst, err
	}
	dst = append(dst, `,"theta":`...)
	if dst, err = appendJSONFloat(dst, w.Theta); err != nil {
		return dst, err
	}
	dst = append(dst, `,"slots":`...)
	if w.Slots == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i, s := range w.Slots {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(s), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"payment":`...)
	if dst, err = appendJSONFloat(dst, w.Payment); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendOutcomeBody appends the bare OutcomeRecord object (the value of
// the envelope's "outcome" key, and the HTTP GET response body).
func appendOutcomeBody(dst []byte, rec *OutcomeRecord) ([]byte, error) {
	var err error
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(rec.Seq), 10)
	if rec.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendJSONString(dst, rec.Err)
	}
	if rec.Feasible {
		dst = append(dst, `,"feasible":true`...)
	} else {
		dst = append(dst, `,"feasible":false`...)
	}
	if rec.Tg != 0 {
		dst = append(dst, `,"tg":`...)
		dst = strconv.AppendInt(dst, int64(rec.Tg), 10)
	}
	if rec.Cost != 0 {
		dst = append(dst, `,"cost":`...)
		if dst, err = appendJSONFloat(dst, rec.Cost); err != nil {
			return dst, err
		}
	}
	if len(rec.Winners) > 0 {
		dst = append(dst, `,"winners":[`...)
		for i := range rec.Winners {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendWinner(dst, rec.Winners[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if rec.Total != 0 {
		dst = append(dst, `,"total_payment":`...)
		if dst, err = appendJSONFloat(dst, rec.Total); err != nil {
			return dst, err
		}
	}
	if rec.Solver != "" {
		dst = append(dst, `,"solver":`...)
		dst = appendJSONString(dst, rec.Solver)
	}
	if rec.CertLowerBound != 0 {
		dst = append(dst, `,"cert_lower_bound":`...)
		if dst, err = appendJSONFloat(dst, rec.CertLowerBound); err != nil {
			return dst, err
		}
	}
	if rec.CertRatio != 0 {
		dst = append(dst, `,"cert_ratio":`...)
		if dst, err = appendJSONFloat(dst, rec.CertRatio); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendSubmission appends the members a bid record and a checkpoint's
// pending entry share, in their field order: "bids" (omitted when
// empty), "cfg" (omitted when nil) and "solver" (omitted when empty,
// which means exact).
func appendSubmission(dst []byte, bids []core.Bid, cfg *ConfigWire, solver string) ([]byte, error) {
	var err error
	if len(bids) > 0 {
		dst = append(dst, `,"bids":[`...)
		for i := range bids {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendBid(dst, bids[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if cfg != nil {
		dst = append(dst, `,"cfg":`...)
		if dst, err = appendConfigWire(dst, *cfg); err != nil {
			return dst, err
		}
	}
	if solver != "" {
		dst = append(dst, `,"solver":`...)
		dst = appendJSONString(dst, solver)
	}
	return dst, nil
}

// solverWireName is the bid record's solver member: empty for exact.
func solverWireName(s core.Solver) string {
	if s == core.SolverExact {
		return ""
	}
	return s.String()
}

// appendBidRecord appends the wire form of a bid (submission) record.
func appendBidRecord(dst []byte, seq int, client string, inst batch.Instance) ([]byte, error) {
	cw, err := FromConfig(inst.Cfg)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `{"type":"bid","seq":`...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	if client != "" {
		dst = append(dst, `,"client":`...)
		dst = appendJSONString(dst, client)
	}
	if dst, err = appendSubmission(dst, inst.Bids, &cw, solverWireName(inst.Solver)); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendOutcomeRecord appends the wire form of a commit marker.
func appendOutcomeRecord(dst []byte, rec *OutcomeRecord) ([]byte, error) {
	dst = append(dst, `{"type":"outcome","seq":`...)
	dst = strconv.AppendInt(dst, int64(rec.Seq), 10)
	dst = append(dst, `,"outcome":`...)
	dst, err := appendOutcomeBody(dst, rec)
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendCheckpoint appends the wire form of a checkpoint record; the
// ledger, outcomes and pending lists are omitted when empty.
func appendCheckpoint(dst []byte, rec *checkpointRecord) ([]byte, error) {
	var err error
	dst = append(dst, `{"type":`...)
	dst = appendJSONString(dst, rec.Type)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, int64(rec.Seq), 10)
	dst = append(dst, `,"base":`...)
	dst = strconv.AppendInt(dst, int64(rec.Base), 10)
	dst = append(dst, `,"folded_next":`...)
	dst = strconv.AppendInt(dst, int64(rec.FoldedNext), 10)
	if len(rec.Ledger) > 0 {
		dst = append(dst, `,"ledger":[`...)
		for i, l := range rec.Ledger {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"client":`...)
			dst = strconv.AppendInt(dst, int64(l.Client), 10)
			dst = append(dst, `,"payment":`...)
			if dst, err = appendJSONFloat(dst, l.Payment); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(rec.Outcomes) > 0 {
		dst = append(dst, `,"outcomes":[`...)
		for i := range rec.Outcomes {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendOutcomeBody(dst, &rec.Outcomes[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if len(rec.Pending) > 0 {
		dst = append(dst, `,"pending":[`...)
		for i, p := range rec.Pending {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"seq":`...)
			dst = strconv.AppendInt(dst, int64(p.Seq), 10)
			if dst, err = appendSubmission(dst, p.Bids, p.Cfg, p.Solver); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}
