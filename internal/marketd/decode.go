package marketd

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
)

// Reflection-free JSON decoding: one scanner with typed decoders that
// invert the append encoders in encode.go. They read the bid rows,
// ConfigWire, WinnerRecord and OutcomeRecord, the bid and outcome WAL
// records, the checkpoint, and the bodies of the two submit handlers.
// The bids member of a bid record or a pending entry, and a checkpoint's
// locator lists, dispatch on their first byte: a string holds packed
// rows (packed.go), which are base64-decoded and unpacked without the
// string scanner's unescaping (FuzzPackedBids), and an array holds the
// objects that logs written before rows were packed hold. Replay reads
// an outcome record's packed payments member on its own
// (replayPayments). Arbitrary clients write the HTTP bodies,
// whose bids are always row objects, so every decoder accepts and
// rejects exactly what encoding/json does for the same Go type and
// fills the same value (FuzzSubmitBody and TestEncodeDifferential pin
// both against encoding/json):
//
//   - keys are unescaped, then matched exactly, else case-insensitively
//     as bytes.EqualFold matches; unknown keys are skipped, but their
//     values are still syntax-checked;
//   - null leaves a number, string, bool or struct as it was and sets a
//     slice or pointer to nil;
//   - a repeated key decodes into what the earlier occurrence left:
//     objects merge, and arrays decode element by element in place and
//     then truncate;
//   - an int takes an integer literal within range, a float any number
//     within float64's range, and nesting stops at 10,000 levels.
//
// Decoding stops at the first error, so a rejected input leaves its
// target partly filled; callers discard it, as they would discard
// encoding/json's.

// maxNesting is encoding/json's nesting limit.
const maxNesting = 10000

// reader is the scanner over one JSON text: p is the input and i the
// read offset. The first error sticks and turns every later call into a
// no-op, so a decoder checks err once, at the end.
type reader struct {
	p     []byte
	i     int
	depth int
	err   error
	buf   []byte // unescaped-string scratch
	stack []byte // closing bytes of the containers skip is inside
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("json: %s at offset %d", fmt.Sprintf(format, args...), r.i)
	}
}

// ws skips whitespace and returns the next byte, 0 at the end of input.
func (r *reader) ws() byte {
	p, i := r.p, r.i
	for ; i < len(p); i++ {
		if c := p[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			r.i = i
			return c
		}
	}
	r.i = i
	return 0
}

// end rejects anything but whitespace after the top-level value, as
// json.Unmarshal does. The HTTP decoders do not call it: json.Decoder
// leaves the bytes after the first value unread.
func (r *reader) end() {
	if r.ws(); r.err == nil && r.i < len(r.p) {
		r.fail("invalid character %q after top-level value", r.p[r.i])
	}
}

// mismatch rejects the value at the read offset, which is not of the
// type being decoded (or not a value at all).
func (r *reader) mismatch(goType string) {
	var kind string
	switch c := r.ws(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || isDigit(c):
		kind = "number"
	case r.i >= len(r.p):
		r.fail("unexpected end of JSON input")
		return
	default:
		r.fail("invalid character %q looking for beginning of value", c)
		return
	}
	r.fail("cannot decode %s into %s", kind, goType)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// literal consumes lit (true, false or null) at the read offset.
func (r *reader) literal(lit string) bool {
	if len(r.p)-r.i >= len(lit) && string(r.p[r.i:r.i+len(lit)]) == lit {
		r.i += len(lit)
		return true
	}
	r.fail("invalid literal, want %s", lit)
	return false
}

// number consumes a number literal and returns its bytes, checking the
// JSON grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (r *reader) number() []byte {
	p, start := r.p, r.i
	i := start
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && isDigit(p[i]):
		i = skipDigits(p, i)
	default:
		r.i = i
		r.fail("invalid number")
		return nil
	}
	if i < len(p) && p[i] == '.' {
		if j := skipDigits(p, i+1); j > i+1 {
			i = j
		} else {
			r.i = j
			r.fail("invalid number: no digits after decimal point")
			return nil
		}
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		if i++; i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		if j := skipDigits(p, i); j > i {
			i = j
		} else {
			r.i = j
			r.fail("invalid number: no digits in exponent")
			return nil
		}
	}
	r.i = i
	return p[start:i]
}

func skipDigits(p []byte, i int) int {
	for i < len(p) && isDigit(p[i]) {
		i++
	}
	return i
}

// unquote consumes a string literal and returns its contents unescaped
// as encoding/json unescapes them: invalid UTF-8 and unpaired surrogate
// escapes become U+FFFD. The result aliases the input when nothing
// needed rewriting, else r.buf; either way it is valid only until the
// next string is read.
func (r *reader) unquote() []byte {
	p := r.p
	start := r.i + 1
	for i := start; i < len(p); {
		c := p[i]
		if plainASCII[c] {
			i++
			continue
		}
		if c == '"' {
			r.i = i + 1
			return p[start:i]
		}
		if c < utf8.RuneSelf { // an escape or a control character
			return r.unquoteSlow(start, i)
		}
		rr, size := utf8.DecodeRune(p[i:])
		if rr == utf8.RuneError && size == 1 {
			return r.unquoteSlow(start, i)
		}
		i += size
	}
	r.i = len(p)
	r.fail("unexpected end of JSON input in string")
	return nil
}

// plainASCII marks the bytes unquote copies verbatim without a second
// look: printable ASCII other than '"' and '\\'.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquoteSlow finishes unquote from p[i], the first byte that is not
// copied verbatim, building the result in r.buf.
func (r *reader) unquoteSlow(start, i int) []byte {
	p := r.p
	b := append(r.buf[:0], p[start:i]...)
	for i < len(p) {
		switch c := p[i]; {
		case c == '"':
			r.i = i + 1
			r.buf = b
			return b
		case c == '\\':
			if i+1 >= len(p) {
				r.i = len(p)
				r.fail("unexpected end of JSON input in string escape")
				return nil
			}
			switch e := p[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(p[i:])
				if rr < 0 {
					r.i = i
					r.fail("invalid \\u escape in string")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, hex4(p[i:])); dec != unicode.ReplacementChar {
						i += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				r.i = i
				r.fail("invalid character %q in string escape", e)
				return nil
			}
			i += 2
		case c < ' ':
			r.i = i
			r.fail("invalid control character %q in string", c)
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(p[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	r.i = len(p)
	r.fail("unexpected end of JSON input in string")
	return nil
}

// hex4 decodes the \uXXXX escape at the start of p, or returns -1.
func hex4(p []byte) rune {
	if len(p) < 6 || p[0] != '\\' || p[1] != 'u' {
		return -1
	}
	var v rune
	for _, c := range p[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// open consumes the opening byte of an object or array, whose closing
// byte is closing, and reports whether a first member follows; an empty
// container is consumed whole.
func (r *reader) open(closing byte) bool {
	r.i++
	if r.depth++; r.depth > maxNesting {
		r.fail("exceeded max depth")
		return false
	}
	if r.ws() == closing {
		r.i++
		r.depth--
		return false
	}
	return true
}

// more consumes what follows a member or element: true after a comma,
// false once the container is closed or on error.
func (r *reader) more(closing byte) bool {
	if r.err != nil {
		return false
	}
	switch r.ws() {
	case ',':
		r.i++
		return true
	case closing:
		r.i++
		r.depth--
		return false
	}
	r.fail("invalid character after element, want ',' or %q", closing)
	return false
}

// key consumes a member's key and colon and returns the unescaped key.
func (r *reader) key() []byte {
	if r.ws() != '"' {
		r.mismatch("object key string")
		return nil
	}
	k := r.unquote()
	if r.ws() != ':' {
		r.fail("invalid character after object key, want ':'")
		return nil
	}
	r.i++
	return k
}

// object decodes an object into a struct whose JSON field names are
// names. member is called with the name each key selects ("" for an
// unknown key) and the reader at the value, which member must consume.
// null leaves the struct as it was; any other value is a type error.
func (r *reader) object(goType string, names []string, member func(name string)) {
	switch r.ws() {
	case '{':
	case 'n':
		r.literal("null")
		return
	default:
		r.mismatch(goType)
		return
	}
	next := 0
	for more := r.open('}'); more; more = r.more('}') {
		if k := r.key(); r.err == nil {
			member(field(k, names, &next))
		}
	}
}

// array calls elem with each element's index and the reader at the
// element, which elem must consume, and returns the element count.
func (r *reader) array(goType string, elem func(i int)) int {
	if r.ws() != '[' {
		r.mismatch(goType)
		return 0
	}
	n := 0
	for more := r.open(']'); more; more = r.more(']') {
		elem(n)
		n++
	}
	return n
}

// skip consumes one value of any type, checking its syntax. It keeps
// the closing bytes of the containers it is inside on r.stack rather
// than recursing, so hostile nesting costs a byte per level, not a
// stack frame.
func (r *reader) skip() {
	base := len(r.stack)
	for r.err == nil {
		switch c := r.ws(); {
		case c == '{' || c == '[':
			closing := byte(']')
			if c == '{' {
				closing = '}'
			}
			if r.open(closing) {
				r.stack = append(r.stack, closing)
				if closing == '}' {
					r.key()
				}
				continue // at the container's first value
			}
		case c == '"':
			r.unquote()
		case c == 't':
			r.literal("true")
		case c == 'f':
			r.literal("false")
		case c == 'n':
			r.literal("null")
		case c == '-' || isDigit(c):
			r.number()
		default:
			r.mismatch("value")
		}
		// A value is done: close every container it completes, up to the
		// next member or element.
		for len(r.stack) > base {
			closing := r.stack[len(r.stack)-1]
			if r.more(closing) {
				if closing == '}' {
					r.key()
				}
				break
			}
			r.stack = r.stack[:len(r.stack)-1]
		}
		if len(r.stack) == base {
			return
		}
	}
}

// decodeSlice decodes an array into *s element by element, in place
// over what *s already holds, and truncates it to the array's length;
// an empty array leaves an empty non-nil slice and null leaves nil.
// Growth keeps every element up to the old capacity, so the values
// match encoding/json's whatever capacity either one picks.
func decodeSlice[T any](r *reader, s *[]T, goType string, elem func(*T)) {
	if r.ws() == 'n' {
		if r.literal("null") {
			*s = nil
		}
		return
	}
	v := *s
	n := r.array(goType, func(i int) {
		if i == len(v) {
			if i == cap(v) {
				v = slices.Grow(v, max(i, 4))
			}
			v = v[:i+1]
		}
		elem(&v[i])
	})
	if r.err != nil {
		return
	}
	if n == 0 {
		v = make([]T, 0)
	}
	*s = v[:n]
}

// decodePtr decodes into the value *p points to, allocating it when *p
// is nil; null sets *p to nil.
func decodePtr[T any](r *reader, p **T, decode func(*T)) {
	if r.ws() == 'n' {
		if r.literal("null") {
			*p = nil
		}
		return
	}
	if *p == nil {
		*p = new(T)
	}
	decode(*p)
}

// int decodes an integer literal that fits an int.
func (r *reader) int(dst *int) {
	switch c := r.ws(); {
	case c == '-' || isDigit(c):
		lit := r.number()
		if r.err != nil {
			return
		}
		n, ok := parseInt(lit)
		if !ok {
			r.fail("cannot decode number %s into int", lit)
			return
		}
		*dst = n
	case c == 'n':
		r.literal("null")
	default:
		r.mismatch("int")
	}
}

// parseInt parses a grammar-checked number literal as
// strconv.ParseInt(lit, 10, 64) does, without converting it to a
// string on the common short path; fractions and exponents fail.
func parseInt(lit []byte) (int, bool) {
	digits := lit
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) > 18 {
		n, err := strconv.ParseInt(string(lit), 10, 64)
		return int(n), err == nil && int64(int(n)) == n
	}
	var n int64
	for _, c := range digits {
		if !isDigit(c) {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(lit) {
		n = -n
	}
	return int(n), int64(int(n)) == n
}

// float decodes a number within float64's range.
func (r *reader) float(dst *float64) {
	switch c := r.ws(); {
	case c == '-' || isDigit(c):
		lit := r.number()
		if r.err != nil {
			return
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			r.fail("cannot decode number %s into float64", lit)
			return
		}
		*dst = f
	case c == 'n':
		r.literal("null")
	default:
		r.mismatch("float64")
	}
}

// str decodes a string, interning it when it equals one of known.
func (r *reader) str(dst *string, known ...string) {
	switch r.ws() {
	case '"':
		s := r.unquote()
		if r.err != nil {
			return
		}
		for _, k := range known {
			if string(s) == k {
				*dst = k
				return
			}
		}
		*dst = string(s)
	case 'n':
		r.literal("null")
	default:
		r.mismatch("string")
	}
}

func (r *reader) bool(dst *bool) {
	switch r.ws() {
	case 't':
		if r.literal("true") {
			*dst = true
		}
	case 'f':
		if r.literal("false") {
			*dst = false
		}
	case 'n':
		r.literal("null")
	default:
		r.mismatch("bool")
	}
}

// field returns the entry of names that key selects, as encoding/json
// selects a struct field: an exact match, else a bytes.EqualFold match.
// "" means the key is unknown. No two names of one table are equal
// under folding, so the first fold match is the only one. The encoders
// write fields in table order, so names[*next] is tried first and
// *next is left at the entry after the match.
func field(key []byte, names []string, next *int) string {
	if i := *next; i < len(names) && string(key) == names[i] {
		*next = i + 1
		return names[i]
	}
	for i, n := range names {
		if string(key) == n {
			*next = i + 1
			return n
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			*next = i + 1
			return n
		}
	}
	return ""
}

// The JSON names of each decoded struct's fields, in declaration order.
// TestDecodeFieldTables checks them against the struct tags.
var (
	bidFields        = []string{"Client", "Index", "Price", "TrueCost", "Theta", "Start", "End", "Rounds", "CompTime", "CommTime"}
	configFields     = []string{"t", "k", "t_max", "payment_rule", "reserve_price", "schedule_rule", "exclude_own_bids"}
	winnerFields     = []string{"bid_index", "client", "index", "price", "theta", "slots", "payment"}
	outcomeFields    = []string{"seq", "err", "feasible", "tg", "cost", "winners", "total_payment", "solver", "cert_lower_bound", "cert_ratio"}
	recordFields     = []string{"type", "seq", "client", "bids", "cfg", "solver", "outcome"}
	envelopeFields   = recordFields[:2]
	ledgerFields     = []string{"client", "payment"}
	pendingFields    = []string{"seq", "bids", "cfg", "solver"}
	checkpointFields = []string{"type", "seq", "base", "folded_next", "ledger", "outcomes", "pending", "outcome_at", "pending_at"}
	frameRefFields   = []string{"seq", "seg", "off"}
	submitFields     = []string{"client", "bids", "cfg"}
	batchFields      = []string{"client", "instances"}
	instanceFields   = []string{"bids", "cfg"}
)

// recordTypes are the record type names replay meets; decoding one
// yields the constant instead of a fresh string.
var recordTypes = []string{recBid, recOutcome, recPay, recCheckpoint}

func (r *reader) bid(b *core.Bid) {
	r.object("core.Bid", bidFields, func(name string) {
		switch name {
		case "Client":
			r.int(&b.Client)
		case "Index":
			r.int(&b.Index)
		case "Price":
			r.float(&b.Price)
		case "TrueCost":
			r.float(&b.TrueCost)
		case "Theta":
			r.float(&b.Theta)
		case "Start":
			r.int(&b.Start)
		case "End":
			r.int(&b.End)
		case "Rounds":
			r.int(&b.Rounds)
		case "CompTime":
			r.float(&b.CompTime)
		case "CommTime":
			r.float(&b.CommTime)
		default:
			r.skip()
		}
	})
}

// bids is the one bid-row decoder: HTTP bodies read their rows through
// it, and so do the bid records and pending entries of logs written
// before rows were packed.
func (r *reader) bids(s *[]core.Bid) { decodeSlice(r, s, "[]core.Bid", r.bid) }

// packedBids decodes the bids member of a bid record or a pending
// entry: a string of packed rows, or an older log's rows.
func (r *reader) packedBids(s *packedBids) {
	if r.ws() != '"' {
		r.bids((*[]core.Bid)(s))
		return
	}
	readPacked(r, (*[]core.Bid)(s), bidRow, wordsBid)
}

func (r *reader) config(c *ConfigWire) {
	r.object("ConfigWire", configFields, func(name string) {
		switch name {
		case "t":
			r.int(&c.T)
		case "k":
			r.int(&c.K)
		case "t_max":
			r.float(&c.TMax)
		case "payment_rule":
			r.int(&c.PaymentRule)
		case "reserve_price":
			r.float(&c.ReservePrice)
		case "schedule_rule":
			r.int(&c.ScheduleRule)
		case "exclude_own_bids":
			r.bool(&c.ExcludeOwnBids)
		default:
			r.skip()
		}
	})
}

func (r *reader) winner(w *WinnerRecord) {
	r.object("WinnerRecord", winnerFields, func(name string) {
		switch name {
		case "bid_index":
			r.int(&w.BidIndex)
		case "client":
			r.int(&w.Client)
		case "index":
			r.int(&w.Index)
		case "price":
			r.float(&w.Price)
		case "theta":
			r.float(&w.Theta)
		case "slots":
			decodeSlice(r, &w.Slots, "[]int", r.int)
		case "payment":
			r.float(&w.Payment)
		default:
			r.skip()
		}
	})
}

func (r *reader) outcome(o *OutcomeRecord) {
	r.object("OutcomeRecord", outcomeFields, func(name string) {
		switch name {
		case "seq":
			r.int(&o.Seq)
		case "err":
			r.str(&o.Err)
		case "feasible":
			r.bool(&o.Feasible)
		case "tg":
			r.int(&o.Tg)
		case "cost":
			r.float(&o.Cost)
		case "winners":
			decodeSlice(r, &o.Winners, "[]WinnerRecord", r.winner)
		case "total_payment":
			r.float(&o.Total)
		case "solver":
			r.str(&o.Solver)
		case "cert_lower_bound":
			r.float(&o.CertLowerBound)
		case "cert_ratio":
			r.float(&o.CertRatio)
		default:
			r.skip()
		}
	})
}

func (r *reader) record(rec *walRecord) {
	r.object("walRecord", recordFields, func(name string) {
		switch name {
		case "type":
			r.str(&rec.Type, recordTypes...)
		case "seq":
			r.int(&rec.Seq)
		case "client":
			r.str(&rec.Client)
		case "bids":
			r.packedBids(&rec.Bids)
		case "cfg":
			decodePtr(r, &rec.Cfg, r.config)
		case "solver":
			r.str(&rec.Solver)
		case "outcome":
			decodePtr(r, &rec.Outcome, r.outcome)
		default:
			r.skip()
		}
	})
}

func (r *reader) ledgerEntry(l *ledgerEntry) {
	r.object("ledgerEntry", ledgerFields, func(name string) {
		switch name {
		case "client":
			r.int(&l.Client)
		case "payment":
			r.float(&l.Payment)
		default:
			r.skip()
		}
	})
}

func (r *reader) pendingEntry(e *pendingEntry) {
	r.object("pendingEntry", pendingFields, func(name string) {
		switch name {
		case "seq":
			r.int(&e.Seq)
		case "bids":
			r.packedBids(&e.Bids)
		case "cfg":
			decodePtr(r, &e.Cfg, r.config)
		case "solver":
			r.str(&e.Solver)
		default:
			r.skip()
		}
	})
}

// frameRefs decodes a checkpoint's locator list: a string of packed
// locators, or an older checkpoint's locator objects.
func (r *reader) frameRefs(s *frameRefs) {
	if r.ws() != '"' {
		decodeSlice(r, (*[]frameRef)(s), "[]frameRef", r.frameRef)
		return
	}
	readPacked(r, (*[]frameRef)(s), locatorRow, wordsLocator)
}

func (r *reader) frameRef(f *frameRef) {
	r.object("frameRef", frameRefFields, func(name string) {
		switch name {
		case "seq":
			r.int(&f.Seq)
		case "seg":
			r.int(&f.Seg)
		case "off":
			off := int(f.Off)
			r.int(&off)
			f.Off = int64(off)
		default:
			r.skip()
		}
	})
}

// checkpoint decodes a checkpoint record. With a nil pending callback
// the embedded pending entries decode into rec.Pending; otherwise each
// entry is only scanned, and pending receives its seq and raw bytes,
// which alias the input.
func (r *reader) checkpoint(rec *checkpointRecord, pending func(seq int, raw []byte)) {
	r.object("checkpointRecord", checkpointFields, func(name string) {
		switch name {
		case "type":
			r.str(&rec.Type, recordTypes...)
		case "seq":
			r.int(&rec.Seq)
		case "base":
			r.int(&rec.Base)
		case "folded_next":
			r.int(&rec.FoldedNext)
		case "ledger":
			decodeSlice(r, &rec.Ledger, "[]ledgerEntry", r.ledgerEntry)
		case "outcomes":
			decodeSlice(r, &rec.Outcomes, "[]OutcomeRecord", r.outcome)
		case "pending":
			if pending == nil {
				decodeSlice(r, &rec.Pending, "[]pendingEntry", r.pendingEntry)
				return
			}
			if r.ws() == 'n' {
				r.literal("null")
				return
			}
			r.array("[]pendingEntry", func(int) {
				r.ws()
				start := r.i
				seq := 0
				r.object("pendingEntry", pendingFields, func(name string) {
					if name == "seq" {
						r.int(&seq)
					} else {
						r.skip()
					}
				})
				if r.err == nil {
					pending(seq, r.p[start:r.i])
				}
			})
		case "outcome_at":
			r.frameRefs(&rec.OutcomeAt)
		case "pending_at":
			r.frameRefs(&rec.PendingAt)
		default:
			r.skip()
		}
	})
}

// peekEnvelope extracts the top-level type and seq of a WAL payload
// without decoding the record's body: it stops as soon as it has both,
// which every encoder writes first, so the bids of a bid record are
// never scanned. Both keys must be present, the type a string and the
// seq an int. end is the offset just past the seq's value, where an
// outcome record's encoder writes the payments member.
func peekEnvelope(p []byte) (typ string, seq, end int, err error) {
	r := reader{p: p}
	haveType, haveSeq := false, false
	if r.ws() == '{' {
		next := 0
		for more := r.open('}'); more; more = r.more('}') {
			k := r.key()
			switch c := r.ws(); field(k, envelopeFields, &next) {
			case "type":
				if c != '"' {
					return "", 0, 0, errBadEnvelope
				}
				r.str(&typ, recordTypes...)
				haveType = true
			case "seq":
				if c != '-' && !isDigit(c) {
					return "", 0, 0, errBadEnvelope
				}
				r.int(&seq)
				haveSeq, end = true, r.i
			default:
				r.skip()
			}
			if r.err != nil {
				break
			}
			if haveType && haveSeq {
				return typ, seq, end, nil
			}
		}
	}
	return "", 0, 0, errBadEnvelope
}

var errBadEnvelope = fmt.Errorf("marketd: undecodable WAL record envelope")

// decodeRecord fully decodes a bid or outcome record. It is the one full
// outcome decoder: every outcome read back from the log goes through it
// (readOutcome), while replay's fold reads only payments
// (replayPayments). It skips an outcome record's payments member, which
// walRecord has no field for.
func decodeRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	r := reader{p: payload}
	r.record(&rec)
	r.end()
	if r.err != nil {
		return rec, fmt.Errorf("marketd: undecodable WAL record: %w", r.err)
	}
	switch rec.Type {
	case recBid, recOutcome:
		return rec, nil
	default:
		return rec, fmt.Errorf("marketd: unknown WAL record type %q", rec.Type)
	}
}

// winnerPayment decodes the two members of a winner the ledger reads,
// client and payment, and only syntax-checks the others.
func (r *reader) winnerPayment(w *WinnerRecord) {
	r.object("WinnerRecord", winnerFields, func(name string) {
		switch name {
		case "client":
			r.int(&w.Client)
		case "payment":
			r.float(&w.Payment)
		default:
			r.skip()
		}
	})
}

// outcomePayments decodes an outcome body's seq and its winners'
// payments, and only syntax-checks the other members.
func (r *reader) outcomePayments(o *OutcomeRecord) {
	r.object("OutcomeRecord", outcomeFields, func(name string) {
		switch name {
		case "seq":
			r.int(&o.Seq)
		case "winners":
			decodeSlice(r, &o.Winners, "[]WinnerRecord", r.winnerPayment)
		default:
			r.skip()
		}
	})
}

// decodePayments decodes what recovery folds of a tail outcome record
// without a payments member: the body's seq and each winner's client
// and payment, into an OutcomeRecord that holds nothing else. Every
// other member is only syntax-checked. Keys, null and repeated keys read
// as in decodeRecord, so wherever decodeRecord accepts an outcome record
// this returns the same seq and the same (client, payment) pairs, bit
// for bit (FuzzTailOutcomePayments). A record without a body returns
// nil. Replay calls it only after peekEnvelope has classified the
// payload; it is also how a binary from before the payments member
// reads a record that has one.
func decodePayments(payload []byte) (*OutcomeRecord, error) {
	var o *OutcomeRecord
	r := reader{p: payload}
	r.object("walRecord", recordFields, func(name string) {
		if name == "outcome" {
			decodePtr(&r, &o, r.outcomePayments)
		} else {
			r.skip()
		}
	})
	r.end()
	if r.err != nil {
		return nil, fmt.Errorf("marketd: undecodable WAL record: %w", r.err)
	}
	return o, nil
}

// replayPayments decodes what replay folds of the outcome record of seq,
// whose envelope peekEnvelope read up to end: each winner's client and
// payment, into an OutcomeRecord that holds nothing else. A record with
// the payments member right after seq, where appendOutcomeRecord puts
// it, is read from that member alone, and its body is never scanned:
// the member is the commit's ledger delta, trusted as the checkpoint's
// ledger is. Any other record (one written before outcome records
// carried the member, or one without winners) is read through
// decodePayments, and its body's seq must be seq. The base64 decodes
// into *scratch, which replay reuses across records, so a record with
// the member allocates only its exact-length winner slice.
func replayPayments(payload []byte, seq, end int, scratch *[]byte) (OutcomeRecord, error) {
	if !bytes.HasPrefix(payload[end:], []byte(paymentsKey+`"`)) {
		o, err := decodePayments(payload)
		if err != nil {
			return OutcomeRecord{}, err
		}
		if o == nil || o.Seq != seq {
			return OutcomeRecord{}, fmt.Errorf("marketd: outcome record %d without a body of that seq", seq)
		}
		return *o, nil
	}
	o := OutcomeRecord{Seq: seq}
	r := reader{p: payload, i: end + len(paymentsKey), buf: *scratch}
	readPacked(&r, &o.Winners, paymentRow, wordsPayment)
	*scratch = r.buf
	if r.err != nil {
		return OutcomeRecord{}, fmt.Errorf("marketd: undecodable WAL record: %w", r.err)
	}
	return o, nil
}

// decodeCheckpoint decodes a checkpoint record; pending is as for
// reader.checkpoint.
func decodeCheckpoint(payload []byte, pending func(seq int, raw []byte)) (checkpointRecord, error) {
	var rec checkpointRecord
	r := reader{p: payload}
	r.checkpoint(&rec, pending)
	r.end()
	if r.err != nil {
		return rec, fmt.Errorf("marketd: undecodable checkpoint record: %w", r.err)
	}
	if rec.Type != recCheckpoint {
		return rec, fmt.Errorf("marketd: checkpoint record with type %q", rec.Type)
	}
	return rec, nil
}

// decodePending decodes a submission that recovery found without an
// outcome: a bid record or the raw bytes of a checkpoint's pending
// entry. An entry's members are a subset of a bid record's, so one
// decoder reads both; it skips the record's type and client.
func decodePending(raw []byte) (batch.Instance, error) {
	var e pendingEntry
	r := reader{p: raw}
	r.pendingEntry(&e)
	r.end()
	if r.err != nil {
		return batch.Instance{}, fmt.Errorf("marketd: undecodable pending submission: %w", r.err)
	}
	var cfg core.Config
	if e.Cfg != nil {
		cfg = e.Cfg.ToConfig()
	}
	solver, err := core.ParseSolver(e.Solver)
	if err != nil {
		return batch.Instance{}, err
	}
	return batch.Instance{Bids: e.Bids, Cfg: cfg, Solver: solver}, nil
}

func (r *reader) batchInstance(in *BatchInstance) {
	r.object("BatchInstance", instanceFields, func(name string) {
		switch name {
		case "bids":
			r.bids(&in.Bids)
		case "cfg":
			r.config(&in.Cfg)
		default:
			r.skip()
		}
	})
}

// decodeSubmitRequest decodes a POST /v1/auctions body as
// json.NewDecoder(body).Decode(req) does: the first JSON value is
// decoded and the bytes after it are ignored.
func decodeSubmitRequest(body []byte, req *SubmitRequest) error {
	r := reader{p: body}
	r.object("SubmitRequest", submitFields, func(name string) {
		switch name {
		case "client":
			r.str(&req.Client)
		case "bids":
			r.bids(&req.Bids)
		case "cfg":
			r.config(&req.Cfg)
		default:
			r.skip()
		}
	})
	return r.err
}

// decodeBatchSubmitRequest is decodeSubmitRequest for the POST
// /v1/auctions:batch body.
func decodeBatchSubmitRequest(body []byte, req *BatchSubmitRequest) error {
	r := reader{p: body}
	r.object("BatchSubmitRequest", batchFields, func(name string) {
		switch name {
		case "client":
			r.str(&req.Client)
		case "instances":
			decodeSlice(&r, &req.Instances, "[]BatchInstance", r.batchInstance)
		default:
			r.skip()
		}
	})
	return r.err
}
