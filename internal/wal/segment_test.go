package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// openDir opens a DirLog collecting replayed payload copies.
func openDir(t *testing.T, path string, opts DirOptions) (*DirLog, DirStats, [][]byte) {
	t.Helper()
	var replayed [][]byte
	l, st, err := OpenDir(path, opts, func(_ Pos, p []byte) error {
		replayed = append(replayed, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, st, replayed
}

func payloadN(i int) []byte { return []byte(fmt.Sprintf(`{"rec":%d}`, i)) }

// TestDirLogSingleSegmentCompat pins that a DirLog with no rotation
// options is one file of plain frames: the bytes EncodeFrame produces,
// replayed clean by a reopen, with no sibling segment files.
func TestDirLogSingleSegmentCompat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")

	l, _, _ := openDir(t, path, DirOptions{NoSync: true})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte-identical to the frame codec.
	var want []byte
	for i := 0; i < 10; i++ {
		want = EncodeFrame(want, payloadN(i))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("DirLog file diverges from the frame format")
	}

	// A reopen replays it.
	l2, st, replayed := openDir(t, path, DirOptions{NoSync: true})
	l2.Close()
	if len(replayed) != 10 || st.Records != 10 || st.DroppedBytes != 0 {
		t.Fatalf("reopen replayed %d records (stats %+v), want 10 clean", len(replayed), st)
	}

	// And no sibling segment files appeared.
	segs, err := Segments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Index != 0 {
		t.Fatalf("segments = %+v, want just the base file", segs)
	}
}

// TestDirLogRotationByRecords drives record-count rotation and checks
// the directory layout, replay order and stats.
func TestDirLogRotationByRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	var rotated []int
	l, _, _ := openDir(t, path, DirOptions{
		NoSync: true, SegmentRecords: 4,
		OnRotate: func(seg int, ckpt bool) {
			if ckpt {
				t.Errorf("plain rotation flagged as checkpoint")
			}
			rotated = append(rotated, seg)
		},
	})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments != 3 {
		t.Fatalf("segments = %d, want 3 (4+4+2 records)", st.Segments)
	}
	if len(rotated) != 2 || rotated[0] != 1 || rotated[1] != 2 {
		t.Fatalf("rotations = %v, want [1 2]", rotated)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, st2, replayed := openDir(t, path, DirOptions{NoSync: true, SegmentRecords: 4})
	if st2.Records != 10 || st2.Segments != 3 || st2.DroppedBytes != 0 {
		t.Fatalf("recovery stats %+v, want 10 records over 3 segments", st2)
	}
	for i, p := range replayed {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("replayed[%d] = %s, want %s", i, p, payloadN(i))
		}
	}
}

// TestDirLogRotationBySize pins the size trigger: a segment never
// rotates empty, and no segment exceeds the bound unless a single
// record does.
func TestDirLogRotationBySize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	l, _, _ := openDir(t, path, DirOptions{NoSync: true, SegmentBytes: 64})
	big := bytes.Repeat([]byte("x"), 100) // single record above the bound
	if _, err := l.Append(big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("size rotation never fired: %+v", segs)
	}
	_, st, replayed := openDir(t, path, DirOptions{NoSync: true})
	if st.Records != 5 || len(replayed) != 5 {
		t.Fatalf("replayed %d records, want 5", st.Records)
	}
	if !bytes.Equal(replayed[0], big) {
		t.Fatal("oversized record lost")
	}
}

// TestDirLogCheckpointRecoveryStartsAtTail: after Rotate(true) + a
// checkpoint record, recovery replays only the checkpoint and the tail,
// and Prune removes the covered history.
func TestDirLogCheckpointRecoveryStartsAtTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	l, _, _ := openDir(t, path, DirOptions{NoSync: true})
	for i := 0; i < 6; i++ {
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(true); err != nil {
		t.Fatal(err)
	}
	ckpt := []byte(`{"ckpt":true}`)
	if _, err := l.Append(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Without pruning: recovery starts at the checkpoint, skipping the
	// base segment.
	_, st, replayed := openDir(t, path, DirOptions{NoSync: true})
	if !st.StartCheckpoint || st.SkippedSegments != 1 {
		t.Fatalf("stats %+v, want recovery from the checkpoint segment", st)
	}
	if st.Records != 4 || st.TailRecords != 3 {
		t.Fatalf("replayed %d records (%d tail), want 4 (3 tail)", st.Records, st.TailRecords)
	}
	if !bytes.Equal(replayed[0], ckpt) {
		t.Fatalf("first replayed record = %s, want the checkpoint", replayed[0])
	}
	for i := 1; i < 4; i++ {
		if !bytes.Equal(replayed[i], payloadN(5+i)) {
			t.Fatalf("tail[%d] = %s, want %s", i, replayed[i], payloadN(5+i))
		}
	}

	// A floor at the base segment keeps it; a floor at the checkpoint
	// removes it, and recovery is unchanged.
	l2, _, _ := openDir(t, path, DirOptions{NoSync: true})
	if n, err := l2.Prune(0); err != nil || n != 0 {
		t.Fatalf("floor 0 pruned %d segments (%v), want 0", n, err)
	}
	n, err := l2.Prune(1)
	if err != nil || n != 1 {
		t.Fatalf("pruned %d segments (%v), want 1", n, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("base segment survived pruning")
	}
	_, st3, replayed3 := openDir(t, path, DirOptions{NoSync: true})
	if st3.Records != 4 || len(replayed3) != 4 || st3.SkippedSegments != 0 {
		t.Fatalf("post-prune recovery stats %+v", st3)
	}
}

// TestDirLogPositionsAndReadAt: Append and replay report the same
// position for a frame, ReadAt reads every frame back by it — replayed
// or not, before or after Close — and Prune keeps every segment at or
// above its floor, so only frames below it stop reading.
func TestDirLogPositionsAndReadAt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	l, _, _ := openDir(t, path, DirOptions{NoSync: true, SegmentRecords: 3})
	var (
		payloads [][]byte
		at       []Pos
	)
	appendOne := func(p []byte) {
		t.Helper()
		pos, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		payloads, at = append(payloads, p), append(at, pos)
	}
	for i := 0; i < 7; i++ {
		appendOne(payloadN(i))
	}
	if err := l.Rotate(true); err != nil {
		t.Fatal(err)
	}
	appendOne([]byte(`{"ckpt":true}`))
	ckpt := len(at) - 1
	for i := 7; i < 11; i++ {
		appendOne(payloadN(i))
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if at[0] != (Pos{}) || at[1].Seg != 0 || at[3].Seg != 1 || at[3].Off != 0 || at[ckpt].Off != 0 {
		t.Fatalf("positions %v: want frames packed from offset 0 of each segment", at)
	}
	readAll := func(l *DirLog, from int) {
		t.Helper()
		for i := from; i < len(at); i++ {
			got, err := l.ReadAt(at[i])
			if err != nil || !bytes.Equal(got, payloads[i]) {
				t.Fatalf("ReadAt(%v) = %q, %v; want %q", at[i], got, err, payloads[i])
			}
		}
	}
	readAll(l, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	readAll(l, 0)

	var replayed []Pos
	l2, _, err := OpenDir(path, DirOptions{NoSync: true, SegmentRecords: 3}, func(pos Pos, p []byte) error {
		replayed = append(replayed, pos)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !slices.Equal(replayed, at[ckpt:]) {
		t.Fatalf("replay positions %v, want %v", replayed, at[ckpt:])
	}
	readAll(l2, 0)
	for _, bad := range []Pos{{Seg: at[1].Seg, Off: at[1].Off + 1}, {Seg: 99}, {Seg: 0, Off: -1}, {Seg: at[ckpt].Seg, Off: 1 << 20}} {
		if got, err := l2.ReadAt(bad); !errors.Is(err, ErrNoFrame) {
			t.Fatalf("ReadAt(%v) = %q, %v; want ErrNoFrame", bad, got, err)
		}
	}

	// Floor at record 4's segment: the segment below it goes, the rest
	// (older than the checkpoint included) stays readable.
	n, err := l2.Prune(at[4].Seg)
	if err != nil || n != at[4].Seg {
		t.Fatalf("Prune(%d) removed %d segments (%v), want %d", at[4].Seg, n, err, at[4].Seg)
	}
	for i := 0; i < 3; i++ {
		if _, err := l2.ReadAt(at[i]); !errors.Is(err, ErrNoFrame) {
			t.Fatalf("ReadAt of pruned record %d: %v, want ErrNoFrame", i, err)
		}
	}
	readAll(l2, 3)
}

// TestDirLogTornCheckpointFallsBack tears the checkpoint record itself
// and requires recovery to fall back to full replay, deleting the
// failed checkpoint segment.
func TestDirLogTornCheckpointFallsBack(t *testing.T) {
	for _, tear := range []string{"empty", "partial"} {
		t.Run(tear, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "market.wal")
			l, _, _ := openDir(t, path, DirOptions{NoSync: true})
			for i := 0; i < 5; i++ {
				if _, err := l.Append(payloadN(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Rotate(true); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			ckptPath := filepath.Join(dir, "market-000001.ckpt.wal")
			if _, err := os.Stat(ckptPath); err != nil {
				t.Fatalf("checkpoint segment missing: %v", err)
			}
			if tear == "partial" {
				// A frame header promising more bytes than follow.
				if err := os.WriteFile(ckptPath, []byte{200, 0, 0, 0, 1, 2, 3, 4, 9}, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			_, st, replayed := openDir(t, path, DirOptions{NoSync: true})
			if st.StartCheckpoint {
				t.Fatal("recovery trusted a torn checkpoint")
			}
			if st.Records != 5 || len(replayed) != 5 {
				t.Fatalf("replayed %d records, want the full 5", st.Records)
			}
			if tear == "partial" && st.DroppedBytes == 0 {
				t.Fatal("torn checkpoint bytes not counted as dropped")
			}
			if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
				t.Fatal("failed checkpoint segment not deleted")
			}
		})
	}
}

// TestDirLogTornTailMidDirectory corrupts a middle segment and checks
// the whole-directory valid-prefix rule: the segment truncates at the
// corruption and every later segment is deleted.
func TestDirLogTornTailMidDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	l, _, _ := openDir(t, path, DirOptions{NoSync: true, SegmentRecords: 2})
	for i := 0; i < 6; i++ { // segments: [0 1] [2 3] [4 5]
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the second segment's second record.
	segPath := filepath.Join(dir, "market-000001.wal")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, st, replayed := openDir(t, path, DirOptions{NoSync: true, SegmentRecords: 2})
	if st.Records != 3 || len(replayed) != 3 {
		t.Fatalf("replayed %d records, want 3 (prefix before the corruption)", st.Records)
	}
	if st.DroppedBytes == 0 {
		t.Fatal("corruption dropped no bytes")
	}
	if _, err := os.Stat(filepath.Join(dir, "market-000002.wal")); !os.IsNotExist(err) {
		t.Fatal("segment after the corruption survived")
	}
	// Deterministic self-healing: a second open is clean.
	_, st2, replayed2 := openDir(t, path, DirOptions{NoSync: true, SegmentRecords: 2})
	if st2.DroppedBytes != 0 || st2.Records != 3 || len(replayed2) != 3 {
		t.Fatalf("second open not clean: %+v", st2)
	}
}

// TestDirLogGroupCommitDurability: records appended in group mode are
// not durable until Commit returns, and concurrent commits coalesce
// into fewer fsyncs than records.
func TestDirLogGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	var batches []int
	var batchMu sync.Mutex
	l, _, _ := openDir(t, path, DirOptions{
		GroupCommit: true,
		OnGroupCommit: func(n int, _ time.Duration) {
			batchMu.Lock()
			batches = append(batches, n)
			batchMu.Unlock()
		},
	})

	const writers, perWriter = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append(payloadN(w*100 + i)); err != nil {
					errs <- err
					return
				}
				if err := l.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := l.Stats()
	if st.Records != writers*perWriter {
		t.Fatalf("records = %d, want %d", st.Records, writers*perWriter)
	}
	batchMu.Lock()
	total := 0
	for _, b := range batches {
		total += b
	}
	batchMu.Unlock()
	if total != writers*perWriter {
		t.Fatalf("group-commit batches cover %d records, want %d", total, writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, _ := openDir(t, path, DirOptions{NoSync: true})
	if st2.Records != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", st2.Records, writers*perWriter)
	}
}

// TestDirLogGroupCommitAbortLosesTail: in group mode an Abort after
// uncommitted appends loses exactly the buffered tail — committed
// records survive.
func TestDirLogGroupCommitAbortLosesTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	l, _, _ := openDir(t, path, DirOptions{GroupCommit: true})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 7; i++ { // appended, never committed
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}
	_, st, replayed := openDir(t, path, DirOptions{NoSync: true})
	if st.Records != 3 {
		t.Fatalf("recovered %d records, want the 3 committed", st.Records)
	}
	for i, p := range replayed {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("survivor %d = %s", i, p)
		}
	}
	// Commit after Abort reports closure.
	if err := l.Commit(); err != ErrClosed {
		t.Fatalf("Commit after Abort = %v, want ErrClosed", err)
	}
}

// TestDirLogCheckpointDebrisAfterRotateCrash simulates the crash
// between rotation and the first checkpoint append: the empty
// checkpoint segment must be discarded, not adopted as a start point.
func TestDirLogCheckpointDebrisAfterRotateCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	l, _, _ := openDir(t, path, DirOptions{NoSync: true})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(true); err != nil {
		t.Fatal(err)
	}
	if err := l.Abort(); err != nil { // dies before the checkpoint record
		t.Fatal(err)
	}

	l2, st, replayed := openDir(t, path, DirOptions{NoSync: true})
	if st.StartCheckpoint || st.Records != 4 || len(replayed) != 4 {
		t.Fatalf("recovery from rotate-crash debris: %+v", st)
	}
	// Appends continue; the dead checkpoint segment's index is reused by
	// a plain segment on the next rotation, never by accident.
	if _, err := l2.Append(payloadN(4)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, _ := openDir(t, path, DirOptions{NoSync: true})
	if st2.Records != 5 {
		t.Fatalf("recovered %d records after debris restart, want 5", st2.Records)
	}
}

// TestDirLogSyncIntervalCoalesces: with a sync interval, many quick
// sequential commits share fsyncs.
func TestDirLogSyncIntervalCoalesces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	l, _, _ := openDir(t, path, DirOptions{GroupCommit: true, SyncInterval: 5 * time.Millisecond})
	const writers = 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.Append(payloadN(w)); err == nil {
				l.Commit()
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Syncs >= writers {
		t.Fatalf("interval coalescing did nothing: %d fsyncs for %d commits", st.Syncs, writers)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDirLogCommitIsTheOnlySync: Append never fsyncs, with or without
// group commit. Commit fsyncs once for everything appended before it,
// and a Commit with nothing new appended costs no further fsync.
func TestDirLogCommitIsTheOnlySync(t *testing.T) {
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			l, _, _ := openDir(t, filepath.Join(t.TempDir(), "market.wal"), DirOptions{GroupCommit: group})
			defer l.Close()
			for i := 0; i < 3; i++ {
				if _, err := l.Append(payloadN(i)); err != nil {
					t.Fatal(err)
				}
			}
			if s := l.Stats().Syncs; s != 0 {
				t.Fatalf("%d fsyncs after 3 appends, want 0", s)
			}
			for i := 0; i < 2; i++ {
				if err := l.Commit(); err != nil {
					t.Fatal(err)
				}
				if s := l.Stats().Syncs; s != 1 {
					t.Fatalf("commit %d: %d fsyncs, want 1", i, s)
				}
			}
		})
	}
}
