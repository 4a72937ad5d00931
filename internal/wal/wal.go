// Package wal is the durability layer of the market daemon: a segmented,
// single-writer, append-only event log (DirLog) of checksummed,
// length-prefixed JSON records, with checkpoints, group commit and
// deterministic torn-tail recovery.
//
// The market's whole crash story reduces to one invariant: a record that
// Commit has made durable is never lost, and a record the log did not
// finish writing is never half-applied. The frame format makes both
// checkable byte-by-byte:
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]['\n']
//
// The payload is one JSON document (a segment file is valid
// "length-prefixed JSONL": strip the 8-byte headers and it reads as a
// line-per-record text log). The trailing newline is part of the frame —
// a frame whose terminator is missing is torn by definition.
//
// Recovery scans each segment's frames from the start and stops at the
// first invalid one: a header that runs past EOF, a payload shorter than
// its length prefix, a CRC mismatch, or a missing terminator. Everything
// before the invalid frame is intact (single writer, append only), so
// everything from it onward is the debris of the write that was in
// flight when the process died. The scan is deterministic: the same file
// bytes always recover to the same record sequence, which is what lets
// the market replay bit-identically.
//
// Durability has one entry point. Append only writes a record through
// the log's buffer; Commit makes every record appended so far durable,
// either with an inline fsync or, with group commit, by joining the
// syncer's next coalesced fsync. Callers that acknowledge writes
// externally (the market acks a bid submission over HTTP) ack only
// after Commit returns.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// frameHeaderLen is the fixed per-record overhead before the payload:
// 4 bytes of little-endian payload length plus 4 bytes of CRC32-C.
const frameHeaderLen = 8

// MaxRecordLen bounds a single record's payload. The limit exists so a
// corrupt length prefix cannot make recovery attempt a multi-gigabyte
// allocation; 16 MiB is orders of magnitude above any market record.
const MaxRecordLen = 16 << 20

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed (or aborted) log.
var ErrClosed = errors.New("wal: log closed")

// ErrTooLarge is returned by Append for payloads over MaxRecordLen.
var ErrTooLarge = errors.New("wal: record exceeds MaxRecordLen")

// scanStats reports what scan found in one segment file.
type scanStats struct {
	records int   // valid records
	valid   int64 // offset of the last valid frame boundary
	dropped int64 // torn/corrupt bytes after it
}

// scan validates frames from the start of f, calling fn (when non-nil)
// once per valid payload, and reports the last valid boundary. It never
// fails on corrupt data — corruption just ends the valid prefix — only
// on I/O errors or a callback error.
func scan(f *os.File, fn func([]byte) error) (scanStats, error) {
	var st scanStats
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return st, fmt.Errorf("wal: size: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return st, fmt.Errorf("wal: rewind: %w", err)
	}
	r := bufio.NewReader(f)
	var (
		header [frameHeaderLen]byte
		buf    []byte
	)
	for {
		rec, n, ok, err := readFrame(r, size-st.valid, header[:], &buf)
		if err != nil {
			return st, err
		}
		if !ok {
			break
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return st, err
			}
		}
		st.valid += n
		st.records++
	}
	st.dropped = size - st.valid
	return st, nil
}

// readFrame reads one frame. remaining bounds the bytes left in the
// file, so a torn header or payload is detected without relying on
// io.EOF semantics. ok=false (with nil error) means "no further valid
// frame": clean EOF or a torn/corrupt tail — the caller cannot and need
// not distinguish, recovery treats both as the end of the log.
func readFrame(r *bufio.Reader, remaining int64, header []byte, buf *[]byte) (payload []byte, frameLen int64, ok bool, err error) {
	if remaining < frameHeaderLen {
		return nil, 0, false, nil // clean EOF or torn header
	}
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, 0, false, fmt.Errorf("wal: read header: %w", err)
	}
	n := binary.LittleEndian.Uint32(header[:4])
	sum := binary.LittleEndian.Uint32(header[4:8])
	if n > MaxRecordLen || int64(n)+1 > remaining-frameHeaderLen {
		return nil, 0, false, nil // absurd length or payload torn at EOF
	}
	if cap(*buf) < int(n)+1 {
		*buf = make([]byte, n+1)
	}
	b := (*buf)[:n+1]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, 0, false, fmt.Errorf("wal: read payload: %w", err)
	}
	if b[n] != '\n' {
		return nil, 0, false, nil // missing terminator: torn frame
	}
	if crc32.Checksum(b[:n], castagnoli) != sum {
		return nil, 0, false, nil // corrupt payload
	}
	return b[:n], frameHeaderLen + int64(n) + 1, true, nil
}

// putFrameHeader fills h with the frame header of payload.
func putFrameHeader(h, payload []byte) {
	binary.LittleEndian.PutUint32(h[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(payload, castagnoli))
}

// DecodeFrame parses a single frame from b, returning the payload and
// the total frame length. ok is false when b does not start with a
// complete valid frame. It is the pure-function core of the recovery
// scan, exported for the fuzzer.
func DecodeFrame(b []byte) (payload []byte, frameLen int, ok bool) {
	if len(b) < frameHeaderLen {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(b[:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if n > MaxRecordLen {
		return nil, 0, false
	}
	end := frameHeaderLen + int(n)
	if end+1 > len(b) {
		return nil, 0, false
	}
	if b[end] != '\n' {
		return nil, 0, false
	}
	p := b[frameHeaderLen:end]
	if crc32.Checksum(p, castagnoli) != sum {
		return nil, 0, false
	}
	return p, end + 1, true
}

// EncodeFrame appends the frame encoding of payload to dst and returns
// the extended slice. Inverse of DecodeFrame; exported for the fuzzer
// and for tests that craft WAL files byte-by-byte.
func EncodeFrame(dst, payload []byte) []byte {
	var header [frameHeaderLen]byte
	putFrameHeader(header[:], payload)
	dst = append(dst, header[:]...)
	dst = append(dst, payload...)
	return append(dst, '\n')
}
