package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALSegment throws hostile multi-segment directories at OpenDir:
// an arbitrary base segment, an optional checkpoint-flagged segment
// with arbitrary bytes (valid, torn, or empty), and an arbitrary tail
// segment. The invariants:
//
//  1. OpenDir never panics and never errors on corrupt data —
//     corruption ends the valid prefix of the directory, it is not an
//     I/O failure;
//  2. recovery is deterministic and self-healing: after one open, a
//     second open replays exactly the same records with zero dropped
//     bytes;
//  3. the healed directory accepts appends and a third open sees the
//     recovered prefix plus the new record, in order.
func FuzzWALSegment(f *testing.F) {
	for _, s := range walSegmentSeeds() {
		f.Add(s.seg0, s.seg1, s.seg2, s.ckpt)
	}

	f.Fuzz(func(t *testing.T, seg0, seg1 []byte, seg2 []byte, ckptFlag bool) {
		dir := t.TempDir()
		path := filepath.Join(dir, "market.wal")
		if err := os.WriteFile(path, seg0, 0o644); err != nil {
			t.Fatal(err)
		}
		name1 := "market-000001.wal"
		if ckptFlag {
			name1 = "market-000001.ckpt.wal"
		}
		if err := os.WriteFile(filepath.Join(dir, name1), seg1, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "market-000002.wal"), seg2, 0o644); err != nil {
			t.Fatal(err)
		}

		open := func() (DirStats, [][]byte) {
			var rec [][]byte
			l, st, err := OpenDir(path, DirOptions{NoSync: true}, func(_ Pos, p []byte) error {
				rec = append(rec, append([]byte(nil), p...))
				return nil
			})
			if err != nil {
				t.Fatalf("OpenDir on fuzzed directory: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			return st, rec
		}

		st1, rec1 := open()
		st2, rec2 := open()
		if st2.DroppedBytes != 0 {
			t.Fatalf("recovered directory still drops %d bytes", st2.DroppedBytes)
		}
		if st1.Records != st2.Records || len(rec1) != len(rec2) {
			t.Fatalf("recovery not stable: %d/%d records vs %d/%d",
				st1.Records, len(rec1), st2.Records, len(rec2))
		}
		if st1.StartCheckpoint != st2.StartCheckpoint {
			t.Fatalf("checkpoint selection not stable: %v vs %v",
				st1.StartCheckpoint, st2.StartCheckpoint)
		}
		for i := range rec1 {
			if !bytes.Equal(rec1[i], rec2[i]) {
				t.Fatalf("record %d differs across recoveries", i)
			}
		}

		// The healed directory is live: append one record, reopen, and
		// the prefix plus the new record come back in order.
		l, _, err := OpenDir(path, DirOptions{NoSync: true}, func(Pos, []byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		extra := []byte(`{"type":"bid","seq":99}`)
		if _, err := l.Append(extra); err != nil {
			t.Fatalf("Append on healed directory: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		st3, rec3 := open()
		if st3.Records != st2.Records+1 || len(rec3) != len(rec2)+1 {
			t.Fatalf("post-append recovery: %d records, want %d", st3.Records, st2.Records+1)
		}
		for i := range rec2 {
			if !bytes.Equal(rec3[i], rec2[i]) {
				t.Fatalf("record %d changed after append", i)
			}
		}
		if !bytes.Equal(rec3[len(rec3)-1], extra) {
			t.Fatalf("appended record lost: %s", rec3[len(rec3)-1])
		}
	})
}

// walSegmentSeed is one FuzzWALSegment input: the bytes of segment 0, of
// segment 1 (checkpoint-flagged when ckpt) and of segment 2.
type walSegmentSeed struct {
	seg0, seg1, seg2 []byte
	ckpt             bool
}

// walSegmentSeeds is FuzzWALSegment's seed corpus.
func walSegmentSeeds() []walSegmentSeed {
	frames := func(payloads ...string) []byte {
		var b []byte
		for _, p := range payloads {
			b = EncodeFrame(b, []byte(p))
		}
		return b
	}
	base := frames(`{"type":"bid","seq":1}`, `{"type":"outcome","seq":1}`)
	ckpt := frames(`{"type":"checkpoint","next":2}`, `{"type":"bid","seq":2}`)
	tail := frames(`{"type":"bid","seq":3}`, `{"type":"outcome","seq":3}`)
	return []walSegmentSeed{
		{base, ckpt, tail, true},
		{base, []byte{}, tail, true},                                       // rotate-crash debris: empty checkpoint
		{base, ckpt[:len(ckpt)-5], tail, true},                             // torn checkpoint tail
		{base, ckpt[:3], tail, true},                                       // torn checkpoint header
		{base, ckpt, tail[:len(tail)-7], true},                             // torn final tail
		{base[:9], ckpt, tail, true},                                       // torn base before the checkpoint
		{base, ckpt, tail, false},                                          // plain rotation, no checkpoint
		{[]byte{}, []byte{}, []byte{}, true},                               // all empty
		{base, append(ckpt[:len(ckpt):len(ckpt)], 0xFF, 0xAB), tail, true}, // garbage after checkpoint frames
	}
}
