package wal

// This file is the segmented log: a DirLog is a directory of segment
// files in the frame format of wal.go, with size/record-count rotation,
// checkpoint-flagged segments that bound recovery to the tail since the
// last checkpoint, pruning of fully checkpointed history, and an
// optional group-commit syncer that coalesces concurrent Commit callers
// into one fsync.
//
// Layout. Segment 0 is the base file the caller names (for the market,
// "market.wal"); a log that never rotated is that one file. Rotated
// segments live next to it as "<stem>-000001.wal", and a segment opened
// to hold a checkpoint as "<stem>-000001.ckpt.wal". Indices only grow;
// gaps (from pruning) are fine. A completed segment is flushed, fsynced
// and never written again, so every byte before the active tail is
// immutable.
//
// Recovery. OpenDir picks the newest checkpoint-flagged segment whose
// first frame is valid and replays forward from there; everything older
// is prunable history the checkpoint already summarizes. A checkpoint
// segment whose first frame is torn or missing is the debris of a
// checkpoint that never committed: it is deleted and recovery falls back
// to the previous checkpoint (or segment 0) — the crash between
// "rotate" and "checkpoint durable" loses nothing, because pruning only
// ever runs after the checkpoint record is on disk. Within the replayed
// range the scan stops at the first invalid frame of any segment: that
// segment is truncated there and every later segment is deleted, so the
// directory as a whole recovers to one deterministic valid prefix.
//
// Durability. Append never makes its record durable; Commit does. Without
// group commit, Commit flushes and fsyncs inline. With
// DirOptions.GroupCommit a dedicated syncer goroutine owns fsync, and
// Commit blocks until a group fsync covers the caller's records.
// Concurrent committers that arrive while a sync is in flight are
// coalesced into the next one (bounded by SyncInterval), so the disk
// pays one fsync per batch of concurrent producers instead of one per
// commit.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DirOptions configures a segmented log.
type DirOptions struct {
	// NoSync disables fsync entirely (tests and benchmarks: CI
	// filesystems make fsync the dominant cost of a differential run).
	// Crash durability is then whatever the OS page cache provides.
	NoSync bool
	// SegmentBytes rotates the active segment before an append would push
	// it past this many bytes. 0 disables size rotation.
	SegmentBytes int64
	// SegmentRecords rotates the active segment once it holds this many
	// records. 0 disables record-count rotation.
	SegmentRecords int
	// GroupCommit enables the dedicated syncer goroutine: Commit blocks
	// until a group fsync covers the caller's appends instead of
	// fsyncing inline.
	GroupCommit bool
	// SyncInterval is the group-commit coalescing window: the syncer
	// waits this long after the first pending commit before fsyncing, so
	// more committers can join the batch. 0 (the default) syncs as soon
	// as the syncer is free — the fsync latency itself is then the
	// coalescing window.
	SyncInterval time.Duration
	// OnRotate, when non-nil, is called after each segment rotation with
	// the new segment's index and checkpoint flag. Called with the log's
	// lock held: it must return quickly and must not call back into the
	// log.
	OnRotate func(seg int, checkpoint bool)
	// OnGroupCommit, when non-nil, is called after each successful group
	// fsync with the number of records it made durable and the sync
	// latency. Called without the log's lock.
	OnGroupCommit func(records int, dur time.Duration)
}

// SegmentInfo describes one live segment file.
type SegmentInfo struct {
	// Index is the segment's rotation index; 0 is the base file.
	Index int
	// Checkpoint reports whether the segment was opened to hold a
	// checkpoint record as its first frame.
	Checkpoint bool
	// Path is the file path.
	Path string
	// Size is the valid byte length.
	Size int64
}

// DirStats is the directory-level recovery picture; Stats returns it
// updated with appends since open.
type DirStats struct {
	// Records is the number of records replayed at open plus records
	// appended since.
	Records int
	// TailRecords is the number of replayed records after the checkpoint
	// record (equal to the full replay count when recovery started at
	// segment 0).
	TailRecords int
	// StartCheckpoint reports whether recovery started at a checkpoint
	// segment instead of replaying from segment 0.
	StartCheckpoint bool
	// SkippedSegments counts the prunable segments before the recovery
	// start point that were not replayed.
	SkippedSegments int
	// Segments is the number of live segment files.
	Segments int
	// LastCheckpointSegment is the index of the newest live
	// checkpoint-flagged segment, -1 when none exists.
	LastCheckpointSegment int
	// TotalBytes is the byte length of every live segment file,
	// including skipped (prunable) ones.
	TotalBytes int64
	// DroppedBytes counts torn/corrupt bytes discarded at open: the
	// truncated tail plus any deleted later segments.
	DroppedBytes int64
	// Syncs counts fsyncs performed since open.
	Syncs int64
}

// DirLog is a segmented single-writer append-only log. Append, Commit,
// Rotate, Prune, Close and Abort are safe for concurrent use: group
// commit makes concurrent committers the point.
type DirLog struct {
	dir  string
	stem string // base path without the ".wal" suffix
	base string // segment-0 path
	opts DirOptions

	mu            sync.Mutex
	f             *os.File
	w             *bufio.Writer
	scratch       [frameHeaderLen]byte
	segs          []SegmentInfo // ascending replay order; last is active
	openStats     DirStats
	records       int64 // appended since open
	synced        int64 // appended records covered by an fsync
	activeRecords int   // records in the active segment
	syncs         int64
	totalBytes    int64
	closed        bool
	syncErr       error

	// Group-commit machinery (nil/unused when !opts.GroupCommit).
	syncCond    *sync.Cond
	waitCond    *sync.Cond
	pendingSync bool
	syncing     bool
	syncerDone  chan struct{}
}

// OpenDir opens (creating if absent) the segmented log whose base
// segment is path, recovers the directory to a deterministic valid
// prefix, and replays it. fn, when non-nil, is called once per
// recovered payload in order — starting from the newest valid
// checkpoint segment, so a caller that wrote checkpoints gets the
// checkpoint record first and only the tail after it. The returned
// stats describe what recovery found.
func OpenDir(path string, opts DirOptions, fn func(payload []byte) error) (*DirLog, DirStats, error) {
	l := &DirLog{
		dir:  filepath.Dir(path),
		stem: strings.TrimSuffix(path, ".wal"),
		base: path,
		opts: opts,
	}
	l.waitCond = sync.NewCond(&l.mu)

	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, DirStats{}, fmt.Errorf("wal: create %s: %w", l.dir, err)
	}
	segs, err := listSegments(path)
	if err != nil {
		return nil, DirStats{}, err
	}
	if len(segs) == 0 {
		segs = []SegmentInfo{{Index: 0, Path: path}}
	}

	stats, err := l.recoverSegments(segs, fn)
	if err != nil {
		return nil, stats, err
	}
	l.openStats = stats

	if opts.GroupCommit {
		l.syncCond = sync.NewCond(&l.mu)
		l.syncerDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, stats, nil
}

// listSegments discovers the live segment files of the log at base,
// sorted into replay order (ascending index; a plain segment sorts
// before a checkpoint segment of the same index, which only hostile
// directories produce). Exported via Segments for tests and tooling.
func listSegments(base string) ([]SegmentInfo, error) {
	dir := filepath.Dir(base)
	stem := strings.TrimSuffix(filepath.Base(base), ".wal")
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		info := SegmentInfo{Path: filepath.Join(dir, name)}
		switch {
		case name == filepath.Base(base):
			// Segment 0, the base file.
		case strings.HasPrefix(name, stem+"-"):
			rest := strings.TrimPrefix(name, stem+"-")
			if strings.HasSuffix(rest, ".ckpt.wal") {
				info.Checkpoint = true
				rest = strings.TrimSuffix(rest, ".ckpt.wal")
			} else if strings.HasSuffix(rest, ".wal") {
				rest = strings.TrimSuffix(rest, ".wal")
			} else {
				continue
			}
			idx := 0
			ok := len(rest) > 0
			for _, c := range rest {
				if c < '0' || c > '9' {
					ok = false
					break
				}
				idx = idx*10 + int(c-'0')
			}
			if !ok {
				continue
			}
			info.Index = idx
		default:
			continue
		}
		if fi, err := e.Info(); err == nil {
			info.Size = fi.Size()
		}
		segs = append(segs, info)
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].Index != segs[j].Index {
			return segs[i].Index < segs[j].Index
		}
		return !segs[i].Checkpoint && segs[j].Checkpoint
	})
	return segs, nil
}

// Segments lists the live segment files of the log whose base segment
// is path, in replay order.
func Segments(path string) ([]SegmentInfo, error) { return listSegments(path) }

// recoverSegments replays the directory into fn and positions the log
// for appending. Single-goroutine (runs before the syncer starts).
func (l *DirLog) recoverSegments(segs []SegmentInfo, fn func([]byte) error) (DirStats, error) {
	stats := DirStats{LastCheckpointSegment: -1}

	// Recovery starts at the newest checkpoint segment whose first frame
	// is valid; a torn first frame means the checkpoint never committed,
	// so fall back to the previous one (or segment 0).
	// The newest checkpoint can sit at list position 0 when pruning
	// already removed everything it covers, so the scan includes it.
	start := 0
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].Checkpoint && firstFrameValid(segs[i].Path) {
			start = i
			stats.StartCheckpoint = true
			break
		}
	}
	stats.SkippedSegments = start

	// Replay from the start segment; the first invalid frame truncates
	// its segment and deletes everything after it.
	end := len(segs)
	counts := make([]int, len(segs)) // records per replayed segment
	for i := start; i < end; i++ {
		f, err := os.OpenFile(segs[i].Path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return stats, fmt.Errorf("wal: open segment %s: %w", segs[i].Path, err)
		}
		st, err := scan(f, fn)
		if err != nil {
			f.Close()
			return stats, err
		}
		stats.Records += st.records
		counts[i] = st.records
		if i == start && stats.StartCheckpoint && st.records > 0 {
			// The checkpoint record itself is not tail.
			stats.TailRecords -= 1
		}
		stats.TailRecords += st.records
		segs[i].Size = st.valid
		if st.dropped > 0 {
			stats.DroppedBytes += st.dropped
			if err := f.Truncate(st.valid); err != nil {
				f.Close()
				return stats, fmt.Errorf("wal: truncate torn tail of %s: %w", segs[i].Path, err)
			}
			for j := i + 1; j < end; j++ {
				stats.DroppedBytes += segs[j].Size
				if err := os.Remove(segs[j].Path); err != nil {
					f.Close()
					return stats, fmt.Errorf("wal: drop segment after torn tail: %w", err)
				}
			}
			end = i + 1
			f.Close()
			break
		}
		f.Close()
	}
	segs = segs[:end]
	counts = counts[:end]

	// A checkpoint segment recovered empty is the debris of a checkpoint
	// that never reached its first durable frame; keeping it would let
	// appends land in a checkpoint-flagged segment whose first record is
	// not a checkpoint, which a later restart could mistake for a
	// recovery start point. Delete it and fall back to the previous
	// segment. Only the last segment can be in this state after the
	// truncation pass, but hostile directories can stack several. The
	// start segment itself is never debris: it was selected for having a
	// valid first frame.
	for len(segs) > start+1 {
		last := segs[len(segs)-1]
		if !last.Checkpoint || last.Size > 0 {
			break
		}
		if err := os.Remove(last.Path); err != nil {
			return stats, fmt.Errorf("wal: drop empty checkpoint segment: %w", err)
		}
		segs = segs[:len(segs)-1]
		counts = counts[:len(counts)-1]
	}
	if len(segs) == 0 {
		segs = []SegmentInfo{{Index: 0, Path: l.base}}
		counts = []int{0}
	}
	l.activeRecords = counts[len(counts)-1]

	for i := range segs {
		stats.TotalBytes += segs[i].Size
		if segs[i].Checkpoint {
			stats.LastCheckpointSegment = segs[i].Index
		}
	}
	stats.Segments = len(segs)

	active := segs[len(segs)-1]
	f, err := os.OpenFile(active.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return stats, fmt.Errorf("wal: open active segment %s: %w", active.Path, err)
	}
	if _, err := f.Seek(active.Size, io.SeekStart); err != nil {
		f.Close()
		return stats, fmt.Errorf("wal: seek %s: %w", active.Path, err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segs = segs
	l.totalBytes = stats.TotalBytes
	return stats, nil
}

// firstFrameValid reports whether the file at path starts with one
// complete valid frame — the test that separates a durable checkpoint
// from the debris of one that never committed.
func firstFrameValid(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return false
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return false
	}
	var header [frameHeaderLen]byte
	var buf []byte
	_, _, ok, err := readFrame(bufio.NewReader(f), size, header[:], &buf)
	return err == nil && ok
}

// segPath names segment idx.
func (l *DirLog) segPath(idx int, checkpoint bool) string {
	if idx == 0 {
		return l.base
	}
	if checkpoint {
		return fmt.Sprintf("%s-%06d.ckpt.wal", l.stem, idx)
	}
	return fmt.Sprintf("%s-%06d.wal", l.stem, idx)
}

// Append writes one record through the log's buffer, rotating first
// when the active segment is full. The payload is copied; the caller may
// reuse it. The record is not durable until a Commit covers it.
func (l *DirLog) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(payload) > MaxRecordLen {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	frameLen := int64(frameHeaderLen + len(payload) + 1)
	if l.shouldRotateLocked(frameLen) {
		if err := l.rotateLocked(false); err != nil {
			return err
		}
	}
	if err := writeFrame(l.w, l.scratch[:], payload); err != nil {
		l.setErrLocked(err)
		return err
	}
	l.records++
	l.activeRecords++
	l.segs[len(l.segs)-1].Size += frameLen
	l.totalBytes += frameLen
	return nil
}

// writeFrame writes one frame through w using scratch for the header.
func writeFrame(w *bufio.Writer, scratch, payload []byte) error {
	putFrameHeader(scratch, payload)
	if _, err := w.Write(scratch[:frameHeaderLen]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := w.WriteByte('\n'); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	return nil
}

// shouldRotateLocked reports whether the next frame of frameLen bytes
// should open a fresh segment. A segment never rotates empty, so a
// record larger than SegmentBytes still lands somewhere.
func (l *DirLog) shouldRotateLocked(frameLen int64) bool {
	active := &l.segs[len(l.segs)-1]
	if active.Size == 0 {
		return false
	}
	if n := l.opts.SegmentRecords; n > 0 && l.activeRecords >= n {
		return true
	}
	if b := l.opts.SegmentBytes; b > 0 && active.Size+frameLen > b {
		return true
	}
	return false
}

// Rotate closes the active segment (flushing and fsyncing it) and opens
// a fresh one; checkpoint flags the new segment as a checkpoint holder,
// whose first record the caller must make the checkpoint itself.
func (l *DirLog) Rotate(checkpoint bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.rotateLocked(checkpoint)
}

func (l *DirLog) rotateLocked(checkpoint bool) error {
	// A completed segment is immutable and durable: flush and fsync
	// before switching, even in group-commit mode (waiting committers
	// are covered by this sync and return immediately).
	if err := l.syncNowLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.setErrLocked(err)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	idx := l.segs[len(l.segs)-1].Index + 1
	path := l.segPath(idx, checkpoint)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		l.setErrLocked(err)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.f = f
	l.w.Reset(f)
	l.segs = append(l.segs, SegmentInfo{Index: idx, Checkpoint: checkpoint, Path: path})
	l.activeRecords = 0
	l.syncDirLocked()
	if l.opts.OnRotate != nil {
		l.opts.OnRotate(idx, checkpoint)
	}
	return nil
}

// Prune deletes every segment older than the newest checkpoint segment
// — history the checkpoint's snapshot fully covers. Call it only after
// the checkpoint record is durable (Commit returned). Returns the
// number of segments removed.
func (l *DirLog) Prune() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	cut := -1
	for i := len(l.segs) - 1; i >= 0; i-- {
		if l.segs[i].Checkpoint {
			cut = i
			break
		}
	}
	if cut <= 0 {
		return 0, nil
	}
	for i := 0; i < cut; i++ {
		if err := os.Remove(l.segs[i].Path); err != nil {
			return i, fmt.Errorf("wal: prune: %w", err)
		}
		l.totalBytes -= l.segs[i].Size
	}
	l.segs = append(l.segs[:0], l.segs[cut:]...)
	l.syncDirLocked()
	return cut, nil
}

// Commit makes every record appended so far durable; it is the log's
// only durability call. In group-commit mode it joins the syncer's next
// batch and blocks until an fsync covers the caller's appends;
// otherwise it is an inline flush+fsync (a no-op when every append is
// already covered).
func (l *DirLog) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.opts.GroupCommit {
		if l.synced < l.records {
			return l.syncNowLocked()
		}
		return l.syncErr
	}
	target := l.records
	for l.synced < target {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.closed {
			return ErrClosed
		}
		l.pendingSync = true
		l.syncCond.Signal()
		l.waitCond.Wait()
	}
	return l.syncErr
}

// syncNowLocked flushes the buffer and fsyncs under the lock, first
// waiting out any in-flight group fsync so the two never interleave on
// the file descriptor.
func (l *DirLog) syncNowLocked() error {
	for l.syncing {
		l.waitCond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		l.setErrLocked(err)
		return fmt.Errorf("wal: flush: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.setErrLocked(err)
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	l.syncs++
	l.synced = l.records
	l.waitCond.Broadcast()
	return nil
}

// syncLoop is the group-commit syncer: it owns fsync, coalescing every
// Commit caller that arrives before (or during) a sync into one batch.
func (l *DirLog) syncLoop() {
	defer close(l.syncerDone)
	l.mu.Lock()
	for {
		for !l.pendingSync && !l.closed {
			l.syncCond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		l.pendingSync = false
		if iv := l.opts.SyncInterval; iv > 0 {
			// The coalescing window: let more committers join the batch.
			l.mu.Unlock()
			time.Sleep(iv)
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return
			}
			l.pendingSync = false
		}
		if l.synced == l.records {
			// Every record is already durable: the request came from a
			// committer whose record the previous fsync covered.
			continue
		}
		start := time.Now()
		if err := l.w.Flush(); err != nil {
			l.setErrLocked(err)
			l.waitCond.Broadcast()
			continue
		}
		target := l.records
		f := l.f
		l.syncing = true
		l.mu.Unlock()

		var err error
		if !l.opts.NoSync {
			err = f.Sync()
		}
		dur := time.Since(start)

		l.mu.Lock()
		l.syncing = false
		l.syncs++
		batch := int(target - l.synced)
		if err != nil {
			l.setErrLocked(err)
		} else if target > l.synced {
			l.synced = target
		}
		l.waitCond.Broadcast()
		if cb := l.opts.OnGroupCommit; cb != nil && err == nil && batch > 0 {
			l.mu.Unlock()
			cb(batch, dur)
			l.mu.Lock()
		}
	}
}

func (l *DirLog) setErrLocked(err error) {
	if l.syncErr == nil {
		l.syncErr = err
	}
}

// syncDirLocked fsyncs the directory so segment creation and removal
// survive power loss, not just process death. Best effort: a filesystem
// that cannot fsync a directory degrades to the process-death model.
func (l *DirLog) syncDirLocked() {
	if l.opts.NoSync {
		return
	}
	if d, err := os.Open(l.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close makes everything durable and stops the log. Idempotent.
func (l *DirLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		if l.syncerDone != nil {
			<-l.syncerDone
		}
		return nil
	}
	err := l.syncNowLocked()
	l.closed = true
	if l.syncCond != nil {
		l.syncCond.Broadcast()
	}
	l.waitCond.Broadcast()
	f := l.f
	l.mu.Unlock()
	if l.syncerDone != nil {
		<-l.syncerDone
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the file descriptor without flushing the write buffer —
// the crash-simulation primitive: records still sitting in the buffer
// are lost exactly as they would be if the process had been killed, and
// whatever the last flush wrote stays. Production code should always
// Close.
func (l *DirLog) Abort() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		if l.syncerDone != nil {
			<-l.syncerDone
		}
		return nil
	}
	l.closed = true
	if l.syncCond != nil {
		l.syncCond.Broadcast()
	}
	l.waitCond.Broadcast()
	f := l.f
	l.mu.Unlock()
	f.Close() // races any in-flight group fsync, which then just errors
	if l.syncerDone != nil {
		<-l.syncerDone
	}
	return nil
}

// Stats returns the directory's current extent: the open-time recovery
// stats updated with appends, rotations and prunes since.
func (l *DirLog) Stats() DirStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.openStats
	st.Records += int(l.records)
	st.Segments = len(l.segs)
	st.TotalBytes = l.totalBytes
	st.Syncs = l.syncs
	st.LastCheckpointSegment = -1
	for i := len(l.segs) - 1; i >= 0; i-- {
		if l.segs[i].Checkpoint {
			st.LastCheckpointSegment = l.segs[i].Index
			break
		}
	}
	return st
}
