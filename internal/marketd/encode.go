package marketd

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
)

// Append-style WAL record encoders. These produce byte-for-byte the
// same JSON as encoding/json on the walRecord envelope (locked in by
// TestEncodeDifferential), but append into a caller-owned buffer, so a
// committed auction costs a small constant number of allocations
// instead of one tree of them per record. The commit path reuses one
// scratch buffer per market under m.mu. Field order, omitempty
// semantics and float formatting all mirror encoding/json so that logs
// written by either implementation replay identically.

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
	if len(inst.Bids) > 0 {
		dst = append(dst, `,"bids":[`...)
		for i := range inst.Bids {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendBid(dst, inst.Bids[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"cfg":`...)
	if dst, err = appendConfigWire(dst, cw); err != nil {
		return dst, err
	}
	if inst.Solver != core.SolverExact {
		dst = append(dst, `,"solver":`...)
		dst = appendJSONString(dst, inst.Solver.String())
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

// --- envelope peeking -------------------------------------------------
//
// Replay does not need to fully decode every record. Bid bodies only
// matter for submissions still pending at the end of the log, and the
// pay records of older logs are skipped on their type alone.
// peekEnvelope scans a payload for just the top-level "type" and "seq"
// keys, skipping every other value, so the common record costs zero
// decode allocations.

var errBadEnvelope = fmt.Errorf("marketd: undecodable WAL record envelope")

func skipJSONWS(p []byte, i int) int {
	for i < len(p) {
		switch p[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// skipJSONString advances past a string literal starting at the opening
// quote; returns the index after the closing quote, or -1.
func skipJSONString(p []byte, i int) int {
	if i >= len(p) || p[i] != '"' {
		return -1
	}
	for i++; i < len(p); i++ {
		switch p[i] {
		case '\\':
			i++ // skip the escaped byte; \uXXXX digits are all non-quote
		case '"':
			return i + 1
		}
	}
	return -1
}

// skipJSONValue advances past any JSON value starting at i; returns the
// index after the value, or -1 on malformed input.
func skipJSONValue(p []byte, i int) int {
	i = skipJSONWS(p, i)
	if i >= len(p) {
		return -1
	}
	switch p[i] {
	case '"':
		return skipJSONString(p, i)
	case '{', '[':
		depth := 0
		for i < len(p) {
			switch p[i] {
			case '{', '[':
				depth++
				i++
			case '}', ']':
				depth--
				i++
				if depth == 0 {
					return i
				}
			case '"':
				if i = skipJSONString(p, i); i < 0 {
					return -1
				}
			default:
				i++
			}
		}
		return -1
	default: // number, true, false, null
		for i < len(p) {
			switch p[i] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return i
			}
			i++
		}
		return i
	}
}

// peekEnvelope extracts the top-level type and seq of a WAL payload
// without decoding record bodies. Both keys must be present (they are,
// in every record either encoder has ever written).
func peekEnvelope(p []byte) (typ string, seq int, err error) {
	i := skipJSONWS(p, 0)
	if i >= len(p) || p[i] != '{' {
		return "", 0, errBadEnvelope
	}
	i = skipJSONWS(p, i+1)
	haveType, haveSeq := false, false
	for i < len(p) && p[i] != '}' {
		keyStart := i
		if i = skipJSONString(p, i); i < 0 {
			return "", 0, errBadEnvelope
		}
		key := p[keyStart+1 : i-1]
		i = skipJSONWS(p, i)
		if i >= len(p) || p[i] != ':' {
			return "", 0, errBadEnvelope
		}
		i = skipJSONWS(p, i+1)
		switch string(key) {
		case "type":
			vs := i
			if i = skipJSONString(p, i); i < 0 {
				return "", 0, errBadEnvelope
			}
			typ = string(p[vs+1 : i-1])
			haveType = true
		case "seq":
			neg := false
			if i < len(p) && p[i] == '-' {
				neg = true
				i++
			}
			start := i
			for i < len(p) && p[i] >= '0' && p[i] <= '9' {
				seq = seq*10 + int(p[i]-'0')
				i++
			}
			if i == start {
				return "", 0, errBadEnvelope
			}
			if neg {
				seq = -seq
			}
			haveSeq = true
		default:
			if i = skipJSONValue(p, i); i < 0 {
				return "", 0, errBadEnvelope
			}
		}
		if haveType && haveSeq {
			return typ, seq, nil
		}
		i = skipJSONWS(p, i)
		if i < len(p) && p[i] == ',' {
			i = skipJSONWS(p, i+1)
		}
	}
	return "", 0, errBadEnvelope
}
