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

// TestDirLogGroupCommitDurability: records appended by concurrent
// committers are durable once Commit returns, and the reported fsync
// batches cover every record exactly once.
func TestDirLogGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	var batches []int
	var batchMu sync.Mutex
	l, _, _ := openDir(t, path, DirOptions{
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

// TestDirLogGroupCommitAbortLosesTail: an Abort after uncommitted
// appends loses exactly the buffered tail — committed records survive.
func TestDirLogGroupCommitAbortLosesTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "market.wal")
	l, _, _ := openDir(t, path, DirOptions{})
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

// TestDirLogCommitIsTheOnlySync: Append never fsyncs. Commit fsyncs
// once for everything appended before it, and a Commit with nothing new
// appended costs no further fsync.
func TestDirLogCommitIsTheOnlySync(t *testing.T) {
	l, _, _ := openDir(t, filepath.Join(t.TempDir(), "market.wal"), DirOptions{})
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
}

// holdFirstCommit opens a log at path whose first led fsync holds its
// leader in OnGroupCommit: the returned channel is closed once the
// leader is held there, and closing release lets it return. It records
// every batch the callback reports.
func holdFirstCommit(t *testing.T, path string) (l *DirLog, held <-chan struct{}, release chan<- struct{}, batches func() []int) {
	t.Helper()
	var (
		mu   sync.Mutex
		seen []int
		in   = make(chan struct{})
		out  = make(chan struct{})
	)
	l, _, _ = openDir(t, path, DirOptions{
		OnGroupCommit: func(n int, _ time.Duration) {
			mu.Lock()
			seen = append(seen, n)
			first := len(seen) == 1
			mu.Unlock()
			if first {
				close(in)
				<-out
			}
		},
	})
	return l, in, out, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(seen)
	}
}

// TestDirLogCommitCoalesces shows coalescing by construction: the first
// committer leads an fsync and is held in OnGroupCommit, where the next
// fsync cannot start, while eight more committers append and commit.
// Once it is released, exactly one more fsync covers all eight.
func TestDirLogCommitCoalesces(t *testing.T) {
	const followers = 8
	l, held, release, batches := holdFirstCommit(t, filepath.Join(t.TempDir(), "market.wal"))
	defer l.Close()
	if _, err := l.Append(payloadN(0)); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, followers+1)
	go func() { errs <- l.Commit() }()
	<-held

	var appended sync.WaitGroup
	for i := 1; i <= followers; i++ {
		appended.Add(1)
		go func() {
			_, err := l.Append(payloadN(i))
			appended.Done()
			if err == nil {
				err = l.Commit()
			}
			errs <- err
		}()
	}
	appended.Wait()
	close(release)
	for i := 0; i <= followers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if s, b := l.Stats().Syncs, batches(); s != 2 || !slices.Equal(b, []int{1, followers}) {
		t.Fatalf("%d fsyncs with batches %v, want 2 with [1 %d]", s, b, followers)
	}
}

// TestDirLogWaitsOutLedSync: Rotate and Close issued while a led fsync
// is still in flight (its leader held in OnGroupCommit) wait for it to
// finish before they flush and fsync the same file, then make the
// records appended meanwhile durable. Their own fsyncs are not reported
// as commit batches.
func TestDirLogWaitsOutLedSync(t *testing.T) {
	for _, op := range []string{"rotate", "close"} {
		t.Run(op, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "market.wal")
			l, held, release, batches := holdFirstCommit(t, path)
			if _, err := l.Append(payloadN(0)); err != nil {
				t.Fatal(err)
			}
			committed := make(chan error, 1)
			go func() { committed <- l.Commit() }()
			<-held

			if _, err := l.Append(payloadN(1)); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				if op == "rotate" {
					done <- l.Rotate(false)
				} else {
					done <- l.Close()
				}
			}()
			select {
			case err := <-done:
				t.Fatalf("%s returned %v while a led fsync was in flight", op, err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			if err := <-committed; err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if op == "rotate" {
				if n := l.Stats().Segments; n != 2 {
					t.Fatalf("%d segments after rotate, want 2", n)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if b := batches(); !slices.Equal(b, []int{1}) {
				t.Fatalf("commit batches %v, want [1]", b)
			}
			_, st, replayed := openDir(t, path, DirOptions{NoSync: true})
			if st.Records != 2 || !bytes.Equal(replayed[0], payloadN(0)) || !bytes.Equal(replayed[1], payloadN(1)) {
				t.Fatalf("recovered %d records %q, want both in order", st.Records, replayed)
			}
		})
	}
}

// TestDirLogAbortFailsUncoveredCommits: an Abort while a led fsync is in
// flight fails the commit of a record that fsync did not cover with
// ErrClosed, and loses that record, while the leader's commit succeeds
// and its record survives.
func TestDirLogAbortFailsUncoveredCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "market.wal")
	l, held, release, _ := holdFirstCommit(t, path)
	if _, err := l.Append(payloadN(0)); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- l.Commit() }()
	<-held

	if _, err := l.Append(payloadN(1)); err != nil {
		t.Fatal(err)
	}
	follower := make(chan error, 1)
	go func() { follower <- l.Commit() }()
	// Let the follower start waiting on the led fsync, so that Abort
	// usually has to wake it; the checks below hold either way.
	time.Sleep(20 * time.Millisecond)
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatalf("leader's commit = %v, want nil", err)
	}
	if err := <-follower; err != ErrClosed {
		t.Fatalf("uncovered commit = %v, want ErrClosed", err)
	}
	_, st, replayed := openDir(t, path, DirOptions{NoSync: true})
	if st.Records != 1 || !bytes.Equal(replayed[0], payloadN(0)) {
		t.Fatalf("recovered %d records %q, want only the leader's", st.Records, replayed)
	}
}

// TestDirLogFailedSyncIsNeverRetried: once a led fsync fails, every
// later Commit returns its error without leading another fsync, since a
// retried fsync can report success for pages the failed one dropped.
// The log's base segment is the null device, whose fsync fails with
// EINVAL on Linux; the test skips where it succeeds.
func TestDirLogFailedSyncIsNeverRetried(t *testing.T) {
	if null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0); err != nil {
		t.Skipf("no null device: %v", err)
	} else {
		err := null.Sync()
		null.Close()
		if err == nil {
			t.Skip("fsync of the null device succeeds on this platform")
		}
	}
	path := filepath.Join(t.TempDir(), "market.wal")
	if err := os.Symlink(os.DevNull, path); err != nil {
		t.Skipf("cannot link the log to the null device: %v", err)
	}
	l, _, _ := openDir(t, path, DirOptions{})
	defer l.Abort()
	if _, err := l.Append(payloadN(0)); err != nil {
		t.Fatal(err)
	}
	first := l.Commit()
	if first == nil {
		t.Fatal("commit over a failing fsync succeeded")
	}

	const committers = 8
	errs := make(chan error, committers)
	for i := 1; i <= committers; i++ {
		go func() {
			_, err := l.Append(payloadN(i))
			if err == nil {
				err = l.Commit()
			}
			errs <- err
		}()
	}
	fresh := 0
	for i := 0; i < committers; i++ {
		switch err := <-errs; {
		case err == nil:
			t.Fatal("commit after a failed fsync succeeded")
		case err != first:
			fresh++
		}
	}
	if s := l.Stats().Syncs; s != 1 {
		t.Fatalf("%d fsyncs led, want the 1 that failed", s)
	}
	if fresh > 0 {
		t.Fatalf("%d of %d later commits returned a new error, not the first failure %v", fresh, committers, first)
	}
}
