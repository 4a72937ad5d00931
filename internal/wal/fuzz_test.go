package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecord throws arbitrary bytes at the frame decoder and at the
// recovery scan of a one-segment log. The invariants under fuzz:
//
//  1. DecodeFrame never panics, and when it accepts a frame the frame
//     re-encodes to exactly the bytes it consumed (decode∘encode = id);
//  2. OpenDir on an arbitrary segment-0 file never panics and never
//     errors on corrupt data (corruption ends the valid prefix, it is
//     not an I/O failure), and recovery is deterministic: scanning the
//     same bytes twice yields the same records and the same truncation
//     point;
//  3. after recovery the file is clean: reopening recovers the same
//     records with zero dropped bytes.
func FuzzWALRecord(f *testing.F) {
	for _, seed := range walRecordSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame-level: decode what we can, check decode∘encode identity.
		rest := data
		for {
			payload, n, ok := DecodeFrame(rest)
			if !ok {
				break
			}
			if re := EncodeFrame(nil, payload); !bytes.Equal(re, rest[:n]) {
				t.Fatalf("decode∘encode mismatch on %d-byte frame", n)
			}
			rest = rest[n:]
		}

		// File-level: recovery must be deterministic and self-healing.
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var first [][]byte
		l, stats1, err := OpenDir(path, DirOptions{NoSync: true}, func(_ Pos, p []byte) error {
			first = append(first, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("OpenDir on fuzzed bytes: %v", err)
		}
		l.Close()

		var second [][]byte
		l2, stats2, err := OpenDir(path, DirOptions{NoSync: true}, func(_ Pos, p []byte) error {
			second = append(second, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("re-Open after recovery: %v", err)
		}
		l2.Close()

		if stats2.DroppedBytes != 0 {
			t.Fatalf("recovered file still drops %d bytes", stats2.DroppedBytes)
		}
		if stats1.Records != stats2.Records || len(first) != len(second) {
			t.Fatalf("recovery not stable: %d/%d records vs %d/%d",
				stats1.Records, len(first), stats2.Records, len(second))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("record %d differs across recoveries", i)
			}
		}
	})
}

// walRecordSeeds is FuzzWALRecord's seed corpus: whole segment files.
func walRecordSeeds() [][]byte {
	two := EncodeFrame(nil, []byte(`{"a":1}`))
	two = EncodeFrame(two, []byte(`{"b":2}`))
	return [][]byte{
		{},
		EncodeFrame(nil, []byte(`{"type":"bid","seq":1}`)),
		two,
		two[:len(two)-3], // torn tail
		append(two[:len(two):len(two)], 0xFF, 0x00, 0xAB),     // trailing garbage
		append(two[:len(two):len(two)], two[len(two)-17:]...), // duplicated tail fragment
		{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, '\n'},            // absurd length
	}
}
