package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// These tests pin the frame format and the per-segment recovery scan on
// a log that never rotates: segment 0 is one file of frames, exactly the
// format every later segment uses.

func TestAppendRecoverRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	want := [][]byte{
		[]byte(`{"type":"bid","seq":0}`),
		[]byte(`{"type":"pay","seq":0,"amount":12.5}`),
		[]byte(``), // empty payloads are legal frames
		[]byte(`{"type":"outcome","seq":0}`),
	}
	l, stats, got := openDir(t, path, DirOptions{})
	if len(got) != 0 || stats.Records != 0 {
		t.Fatalf("fresh log recovered %d records", len(got))
	}
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, stats, got := openDir(t, path, DirOptions{})
	defer l2.Close()
	if stats.Records != len(want) || stats.DroppedBytes != 0 {
		t.Fatalf("recover stats = %+v, want %d records, 0 dropped", stats, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// appendRecords writes n records and closes the log, returning the
// clean file contents.
func appendRecords(t *testing.T, path string, n int) []byte {
	t.Helper()
	l, _, _ := openDir(t, path, DirOptions{})
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf(`{"seq":%d,"body":"record-%d"}`, i, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return clean
}

func TestTornTailTruncated(t *testing.T) {
	// Every possible torn length of the final frame — from one missing
	// byte to only one byte of its header present — must recover to
	// exactly the first n-1 records and truncate the debris.
	path := filepath.Join(t.TempDir(), "log.wal")
	clean := appendRecords(t, path, 5)
	frames := splitFrames(t, clean)
	prefix := len(clean) - len(frames[4])

	for cut := 1; cut < len(frames[4]); cut++ {
		torn := clean[:len(clean)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		l, stats, got := openDir(t, path, DirOptions{})
		if len(got) != 4 {
			t.Fatalf("cut %d: recovered %d records, want 4", cut, len(got))
		}
		if stats.DroppedBytes != int64(len(torn)-prefix) {
			t.Fatalf("cut %d: dropped %d bytes, want %d", cut, stats.DroppedBytes, len(torn)-prefix)
		}
		// The file must be physically truncated to the valid boundary so
		// the next append starts a clean frame.
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(prefix) {
			t.Fatalf("cut %d: file size %d, want %d (err %v)", cut, fi.Size(), prefix, err)
		}
		if _, err := l.Append([]byte(`{"seq":4,"body":"rewritten"}`)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, got = openDir(t, path, DirOptions{})
		if len(got) != 5 || string(got[4]) != `{"seq":4,"body":"rewritten"}` {
			t.Fatalf("cut %d: post-repair log has %d records, tail %q", cut, len(got), got[len(got)-1])
		}
	}
}

func TestCRCCorruptTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	clean := appendRecords(t, path, 3)
	frames := splitFrames(t, clean)
	last := frames[2]

	// Flip one payload byte of the last frame: its CRC no longer matches,
	// so recovery must stop before it, deterministically.
	for _, flip := range []int{frameHeaderLen, len(last) - 2} {
		corrupt := append([]byte(nil), clean...)
		corrupt[len(clean)-len(last)+flip] ^= 0x40
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		l, stats, got := openDir(t, path, DirOptions{})
		l.Close()
		if len(got) != 2 {
			t.Fatalf("flip %d: recovered %d records, want 2", flip, len(got))
		}
		if stats.DroppedBytes != int64(len(last)) {
			t.Fatalf("flip %d: dropped %d bytes, want %d", flip, stats.DroppedBytes, len(last))
		}
	}
}

func TestMidLogCorruptionDropsSuffix(t *testing.T) {
	// Corruption in the middle of the log ends the valid prefix: the
	// single-writer append-only invariant means everything after the bad
	// frame is unreachable debris. Recovery keeps the prefix and drops
	// the rest — deterministically, never with a panic.
	path := filepath.Join(t.TempDir(), "log.wal")
	clean := appendRecords(t, path, 6)
	frames := splitFrames(t, clean)
	// Corrupt frame 2's CRC header field.
	off := len(frames[0]) + len(frames[1]) + 4
	corrupt := append([]byte(nil), clean...)
	corrupt[off] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	l, stats, got := openDir(t, path, DirOptions{})
	l.Close()
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	wantDrop := int64(len(clean) - len(frames[0]) - len(frames[1]))
	if stats.DroppedBytes != wantDrop {
		t.Fatalf("dropped %d bytes, want %d", stats.DroppedBytes, wantDrop)
	}
}

func TestDuplicateFrameReplaysTwice(t *testing.T) {
	// The framing layer has no sequence semantics: a duplicated append
	// (the classic retry-after-lost-ack fault) replays as two identical
	// records. Deduplication is the reader's job — marketd keys records
	// by sequence number — so the WAL must surface both, deterministically.
	path := filepath.Join(t.TempDir(), "log.wal")
	clean := appendRecords(t, path, 2)
	frames := splitFrames(t, clean)
	dup := append(append([]byte(nil), clean...), frames[1]...)
	if err := os.WriteFile(path, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	l, stats, got := openDir(t, path, DirOptions{})
	l.Close()
	if len(got) != 3 || stats.DroppedBytes != 0 {
		t.Fatalf("recovered %d records (%d dropped), want 3 (0)", len(got), stats.DroppedBytes)
	}
	if !bytes.Equal(got[1], got[2]) {
		t.Fatalf("duplicate frame decoded differently: %q vs %q", got[1], got[2])
	}
}

func TestAbsurdLengthPrefixRejected(t *testing.T) {
	// A corrupt length prefix claiming a giant payload must not drive a
	// giant allocation; it ends the valid prefix like any torn frame.
	path := filepath.Join(t.TempDir(), "log.wal")
	clean := appendRecords(t, path, 2)
	var header [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(header[:4], MaxRecordLen+1)
	bad := append(append([]byte(nil), clean...), header[:]...)
	bad = append(bad, []byte("garbage")...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	l, stats, got := openDir(t, path, DirOptions{})
	l.Close()
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	if stats.DroppedBytes != int64(frameHeaderLen+len("garbage")) {
		t.Fatalf("dropped %d bytes", stats.DroppedBytes)
	}
}

func TestSyncBatching(t *testing.T) {
	// Append never syncs: records reach the file (and survive an Abort)
	// only at a Commit. Abort after 4 committed and 2 uncommitted
	// appends keeps exactly 4.
	path := filepath.Join(t.TempDir(), "log.wal")
	l, _, _ := openDir(t, path, DirOptions{})
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf(`{"seq":%d}`, i))); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}
	_, _, got := openDir(t, path, DirOptions{})
	if len(got) != 4 {
		t.Fatalf("abort after 4 committed + 2 uncommitted appends kept %d records, want 4", len(got))
	}

	// Close, by contrast, flushes the uncommitted appends.
	l2, _, _ := openDir(t, path, DirOptions{})
	for i := 0; i < 6; i++ {
		if _, err := l2.Append([]byte(fmt.Sprintf(`{"extra":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, got = openDir(t, path, DirOptions{})
	if len(got) != 10 {
		t.Fatalf("close kept %d records, want 10", len(got))
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, _, _ := openDir(t, path, DirOptions{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Commit(); err != ErrClosed {
		t.Fatalf("Commit after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
}

func TestStatsTrackAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, stats, _ := openDir(t, path, DirOptions{})
	if stats.Records != 0 {
		t.Fatal("fresh log has records")
	}
	payload := []byte(`{"a":1}`)
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		s := l.Stats()
		if s.Records != i {
			t.Fatalf("after %d appends Stats().Records = %d", i, s.Records)
		}
		want := int64(i) * int64(frameHeaderLen+len(payload)+1)
		if s.TotalBytes != want {
			t.Fatalf("after %d appends TotalBytes = %d, want %d", i, s.TotalBytes, want)
		}
	}
	l.Close()
}

// splitFrames re-parses a clean log file into its frames using the
// exported decoder, so tests can splice at exact frame boundaries.
func splitFrames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(b) > 0 {
		_, n, ok := DecodeFrame(b)
		if !ok {
			t.Fatalf("clean log failed to decode at %d frames", len(frames))
		}
		frames = append(frames, b[:n])
		b = b[n:]
	}
	return frames
}

func TestEncodeDecodeFrame(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), []byte(`{"k":"v"}`), bytes.Repeat([]byte("a"), 4096)} {
		frame := EncodeFrame(nil, payload)
		got, n, ok := DecodeFrame(frame)
		if !ok || n != len(frame) || !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip failed for %d-byte payload (ok=%v n=%d)", len(payload), ok, n)
		}
	}
}
