package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReadAt damages a segmented log and reads every record back by
// the position Append reported for it. The log holds records across
// record-count rotations and a checkpoint segment. Each input is a
// program of damage ops, five bytes each (kind, segment, two offset
// bytes, xor mask): flip a byte of any segment, truncate a sealed
// segment, or delete one. The invariant: ReadAt
// returns the record's original payload byte for byte or an error —
// never another payload and never a panic — both on the log that wrote
// the records (closed) and on the log OpenDir recovers from the damaged
// directory.
func FuzzWALReadAt(f *testing.F) {
	f.Add([]byte{})                                 // undamaged
	f.Add([]byte{0, 0, 0, 20, 0xff})                // flip inside the first payload
	f.Add([]byte{0, 1, 0, 0, 0x01})                 // flip a length prefix
	f.Add([]byte{0, 2, 0, 5, 0x80})                 // flip a checksum byte
	f.Add([]byte{1, 1, 0, 30, 0})                   // truncate a sealed segment mid-frame
	f.Add([]byte{1, 0, 0, 0, 0})                    // truncate a sealed segment to empty
	f.Add([]byte{2, 1, 0, 0, 0})                    // delete a sealed segment
	f.Add([]byte{2, 3, 0, 0, 0})                    // delete the checkpoint segment
	f.Add([]byte{1, 2, 0, 9, 0, 2, 3, 0, 0, 0})     // truncate, then delete a later segment
	f.Add([]byte{0, 4, 0, 60, 0x0a, 2, 0, 0, 0, 0}) // flip the active segment, delete segment 0

	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "market.wal")
		opts := DirOptions{NoSync: true, SegmentRecords: 3}
		l, _, err := OpenDir(path, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		var (
			payloads [][]byte
			at       []Pos
		)
		add := func(p []byte) {
			pos, err := l.Append(p)
			if err != nil {
				t.Fatal(err)
			}
			payloads, at = append(payloads, p), append(at, pos)
		}
		for i := 0; i < 8; i++ {
			add([]byte(fmt.Sprintf(`{"type":"bid","seq":%d,"pad":"%s"}`, i, bytes.Repeat([]byte{'a' + byte(i)}, 3*i))))
		}
		if err := l.Rotate(true); err != nil {
			t.Fatal(err)
		}
		add([]byte(`{"type":"checkpoint","seq":8}`))
		for i := 8; i < 13; i++ {
			add([]byte(fmt.Sprintf(`{"type":"outcome","seq":%d}`, i)))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		for len(ops) >= 5 {
			op, file, off, arg := ops[0], int(ops[1]), int64(ops[2])<<8|int64(ops[3]), ops[4]
			ops = ops[5:]
			segs, err := Segments(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) == 0 {
				break
			}
			seg := segs[file%len(segs)]
			sealed := file%len(segs) < len(segs)-1
			switch op % 3 {
			case 0: // flip bytes
				b, err := os.ReadFile(seg.Path)
				if err != nil {
					t.Fatal(err)
				}
				if len(b) == 0 {
					continue
				}
				b[off%int64(len(b))] ^= arg
				if err := os.WriteFile(seg.Path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			case 1: // truncate a sealed segment
				if sealed && seg.Size > 0 {
					if err := os.Truncate(seg.Path, off%seg.Size); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // delete a sealed segment
				if sealed {
					if err := os.Remove(seg.Path); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		check := func(l *DirLog, which string) {
			for i, pos := range at {
				got, err := l.ReadAt(pos)
				if err == nil && !bytes.Equal(got, payloads[i]) {
					t.Fatalf("%s ReadAt(%v) = %q, want %q or an error", which, pos, got, payloads[i])
				}
			}
		}
		check(l, "writer")
		l2, _, err := OpenDir(path, opts, nil)
		if err != nil {
			t.Fatalf("OpenDir on the damaged directory: %v", err)
		}
		defer l2.Close()
		check(l2, "recovered")
	})
}
