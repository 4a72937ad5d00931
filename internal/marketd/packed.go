package marketd

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"github.com/fedauction/afl/internal/core"
)

// Packed rows: the one binary codec behind three string members of the
// log. The bids of a bid record and of a checkpoint's pending entry
// (packedBids), the payments of an outcome record (its "payments"
// member) and a checkpoint's locators (frameRefs) are each one JSON
// string: the base64 (standard alphabet, padded) of whole rows of
// words, an int as a zigzag varint (encoding/binary's AppendVarint) and
// a float as its little-endian 8-byte IEEE-754 bits. A rowLayout says
// which words of a row are floats. No float is formatted or parsed, and
// base64 holds no JSON escape, so a reader finds a member's end at the
// next quote. Decoding accepts only what the encoder writes: strict
// base64 without the line breaks the base64 decoder would skip, whole
// rows, minimal varints, ints that fit an int and finite floats.

// rowLayout is the shape of a packed row. float[j] reports whether word
// j holds a float's bits rather than an int; what names the rows in
// errors.
type rowLayout struct {
	what  string
	float []bool
}

var (
	// bidRow is core.Bid's ten fields in declaration order.
	bidRow = rowLayout{"packed bids", []bool{2: true, 3: true, 4: true, 8: true, 9: true}}
	// paymentRow is a winner's client and payment.
	paymentRow = rowLayout{"packed payments", []bool{false, true}}
	// locatorRow is a frameRef's seq, segment and offset.
	locatorRow = rowLayout{"packed locators", []bool{false, false, false}}
)

// maxWords is the word count of the widest layout, bidRow.
const maxWords = 10

// rowWords is one row's words: ints as int64, floats as their bits. A
// layout uses the first len(float) of them.
type rowWords [maxWords]uint64

// maxRowBytes bounds one packed row of any layout.
const maxRowBytes = maxWords * binary.MaxVarintLen64

// strictBase64 is the decoder of every packed string.
var strictBase64 = base64.StdEncoding.Strict()

// finiteBits reports whether a float's bits are neither an infinity
// nor a NaN: its exponent is not all ones.
func finiteBits(w uint64) bool { return w&(0x7ff<<52) != 0x7ff<<52 }

// appendRows appends rows as a packed string, words giving each row's
// words. The rows go through a stack buffer, whose longest prefix of
// whole base64 groups (a multiple of 3 bytes) is encoded whenever
// another row might not fit, so only the last group is padded and
// nothing is allocated. A non-finite float is refused as
// appendJSONFloat refuses one.
func appendRows[T any](dst []byte, layout rowLayout, rows []T, words func(*T) rowWords) ([]byte, error) {
	var buf [8 * maxRowBytes]byte
	raw := buf[:0]
	dst = append(dst, '"')
	for i := range rows {
		if len(raw) > len(buf)-maxRowBytes {
			n := len(raw) / 3 * 3
			dst = base64.StdEncoding.AppendEncode(dst, raw[:n])
			raw = buf[:copy(buf[:], raw[n:])]
		}
		w := words(&rows[i])
		for j, float := range layout.float {
			switch {
			case !float:
				raw = binary.AppendVarint(raw, int64(w[j]))
			case finiteBits(w[j]):
				raw = binary.LittleEndian.AppendUint64(raw, w[j])
			default:
				return dst, fmt.Errorf("marketd: unsupported float value %v in WAL record", math.Float64frombits(w[j]))
			}
		}
	}
	dst = base64.StdEncoding.AppendEncode(dst, raw)
	return append(dst, '"'), nil
}

// unpackRows decodes the contents of a packed string into an
// exact-length slice, item building each element from a row's words,
// and decodes the base64 into *scratch.
func unpackRows[T any](enc []byte, layout rowLayout, scratch *[]byte, item func(rowWords) T) ([]T, error) {
	*scratch = slices.Grow((*scratch)[:0], base64.StdEncoding.DecodedLen(len(enc)))
	n, err := strictBase64.Decode((*scratch)[:cap(*scratch)], enc)
	switch {
	case err != nil:
		return nil, fmt.Errorf("%s: %w", layout.what, err)
	case base64.StdEncoding.EncodedLen(n) != len(enc):
		return nil, fmt.Errorf("%s: line break in base64", layout.what)
	}
	raw := (*scratch)[:n]
	rows, err := packedRows(raw, layout)
	if err != nil {
		return nil, err
	}
	out := make([]T, rows)
	for i := range out {
		var w rowWords
		for j, float := range layout.float {
			if float {
				w[j], raw = binary.LittleEndian.Uint64(raw), raw[8:]
				continue
			}
			v, k := binary.Varint(raw)
			w[j], raw = uint64(v), raw[k:]
		}
		out[i] = item(w)
	}
	return out, nil
}

// packedRows counts the rows of raw, requiring it to split into whole
// rows of layout whose varints are minimal and fit an int and whose
// floats are finite. A minimal varint of more than one byte ends in a
// non-zero byte.
func packedRows(raw []byte, layout rowLayout) (int, error) {
	rows := 0
	for ; len(raw) > 0; rows++ {
		for _, float := range layout.float {
			k := 8
			switch {
			case !float:
				var v int64
				if v, k = binary.Varint(raw); k <= 0 || k > 1 && raw[k-1] == 0 {
					return 0, fmt.Errorf("%s: row %d holds a truncated, overlong or overflowing varint", layout.what, rows)
				}
				if int64(int(v)) != v {
					return 0, fmt.Errorf("%s: row %d holds %d, which overflows int", layout.what, rows, v)
				}
			case len(raw) < 8:
				return 0, fmt.Errorf("%s: row %d is truncated", layout.what, rows)
			case !finiteBits(binary.LittleEndian.Uint64(raw)):
				return 0, fmt.Errorf("%s: row %d holds a non-finite float", layout.what, rows)
			}
			raw = raw[k:]
		}
	}
	return rows, nil
}

// readPacked decodes the packed string at the read offset into *s. A
// string that would need unescaping is not base64, and unpackRows
// rejects it.
func readPacked[T any](r *reader, s *[]T, layout rowLayout, item func(rowWords) T) {
	p := r.p[r.i+1:]
	n := bytes.IndexByte(p, '"')
	if n < 0 {
		r.i = len(r.p)
		r.fail("unexpected end of JSON input in string")
		return
	}
	rows, err := unpackRows(p[:n], layout, &r.buf, item)
	if err != nil {
		r.fail("%v", err)
		return
	}
	*s = rows
	r.i += n + 2
}

// unmarshalPacked is the UnmarshalJSON of a packed member: a string
// holds packed rows, and anything else is the JSON form older logs hold,
// which encoding/json decodes.
func unmarshalPacked[T any](data []byte, s *[]T, layout rowLayout, item func(rowWords) T) error {
	if len(data) == 0 || data[0] != '"' {
		return json.Unmarshal(data, s)
	}
	var scratch []byte
	rows, err := unpackRows(data[1:len(data)-1], layout, &scratch, item)
	if err != nil {
		return err
	}
	*s = rows
	return nil
}

// bidWords is b's fields in declaration order.
func bidWords(b *core.Bid) rowWords {
	return rowWords{
		uint64(b.Client), uint64(b.Index),
		math.Float64bits(b.Price), math.Float64bits(b.TrueCost), math.Float64bits(b.Theta),
		uint64(b.Start), uint64(b.End), uint64(b.Rounds),
		math.Float64bits(b.CompTime), math.Float64bits(b.CommTime),
	}
}

// wordsBid is the bid whose fields w holds; the inverse of bidWords.
func wordsBid(w rowWords) core.Bid {
	return core.Bid{
		Client: int(int64(w[0])), Index: int(int64(w[1])),
		Price: math.Float64frombits(w[2]), TrueCost: math.Float64frombits(w[3]), Theta: math.Float64frombits(w[4]),
		Start: int(int64(w[5])), End: int(int64(w[6])), Rounds: int(int64(w[7])),
		CompTime: math.Float64frombits(w[8]), CommTime: math.Float64frombits(w[9]),
	}
}

// paymentWords is a winner's client and payment.
func paymentWords(w *WinnerRecord) rowWords {
	return rowWords{uint64(w.Client), math.Float64bits(w.Payment)}
}

// wordsPayment is the winner, client and payment only, that w holds.
func wordsPayment(w rowWords) WinnerRecord {
	return WinnerRecord{Client: int(int64(w[0])), Payment: math.Float64frombits(w[1])}
}

// locatorWords is a locator's seq, segment and offset.
func locatorWords(f *frameRef) rowWords {
	return rowWords{uint64(f.Seq), uint64(f.Seg), uint64(f.Off)}
}

// wordsLocator is the locator w holds.
func wordsLocator(w rowWords) frameRef {
	return frameRef{Seq: int(int64(w[0])), Seg: int(int64(w[1])), Off: int64(w[2])}
}

// appendPackedBids appends bids as the packed string of packedBids.
func appendPackedBids(dst []byte, bids []core.Bid) ([]byte, error) {
	return appendRows(dst, bidRow, bids, bidWords)
}
