package marketd

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/obs"
	"github.com/fedauction/afl/internal/wal"
)

// newestCheckpoint decodes the checkpoint record recovery of dir would
// start from, and returns it with its payload length.
func newestCheckpoint(t *testing.T, dir string) (checkpointRecord, int) {
	t.Helper()
	segs, err := wal.Segments(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	for i := len(segs) - 1; i >= 0; i-- {
		if !segs[i].Checkpoint {
			continue
		}
		l, _, err := wal.OpenDir(filepath.Join(dir, WALFileName), wal.DirOptions{NoSync: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := l.ReadAt(wal.Pos{Seg: segs[i].Index})
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeCheckpoint(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec, len(payload)
	}
	t.Fatal("no checkpoint segment")
	return checkpointRecord{}, 0
}

func refSeqs(refs []frameRef) []int {
	seqs := make([]int, len(refs))
	for i, f := range refs {
		seqs[i] = f.Seq
	}
	return seqs
}

// TestCheckpointFlatInHistory: the checkpoint is an index into the log,
// so with a bounded retention window its size, the live segments and
// the outcomes held in memory do not grow with history. The same
// instance mix runs to 500 and to 5,000 commits with CheckpointEvery =
// RetainOutcomes = 50: the newest checkpoint frames differ only in the
// digit counts of sequence numbers, segment indices and offsets, both
// runs keep the same number of segments, and after the drain neither
// market holds a folded outcome in memory.
func TestCheckpointFlatInHistory(t *testing.T) {
	insts := marketInstances(t, 8)
	const window = 50
	run := func(commits int) (frameLen, segments int) {
		dir := t.TempDir()
		m, err := Open(context.Background(), Config{
			Dir: dir, Workers: 1, NoSync: true, CheckpointEvery: window, RetainOutcomes: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		chunk := make([]batch.Instance, window)
		for done := 0; done < commits; done += window {
			for i := range chunk {
				chunk[i] = insts[(done+i)%len(insts)]
			}
			seqs, err := m.SubmitBatch(context.Background(), "c", chunk)
			if err != nil {
				t.Fatal(err)
			}
			for _, seq := range seqs {
				if _, err := m.Wait(context.Background(), seq); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.mu.Lock()
		held, resident, indexed := len(m.outcomes), len(m.resident)+len(m.parked), len(m.frames)
		m.mu.Unlock()
		if held != 0 || resident != 0 || indexed != window {
			t.Fatalf("after %d commits the market holds %d unfolded and %d folded outcomes in memory and indexes %d; want 0, 0 and %d",
				commits, held, resident, indexed, window)
		}
		ckpt, n := newestCheckpoint(t, dir)
		if ckpt.Seq != commits || len(ckpt.OutcomeAt) != window || len(ckpt.Outcomes) != 0 ||
			len(ckpt.Pending)+len(ckpt.PendingAt) != 0 {
			t.Fatalf("checkpoint at %d commits: seq %d, %d located and %d embedded outcomes, %d pending; want %d, %d, 0, 0",
				commits, ckpt.Seq, len(ckpt.OutcomeAt), len(ckpt.Outcomes), len(ckpt.Pending)+len(ckpt.PendingAt), commits, window)
		}
		return n, m.WALInfo().Segments
	}
	short, shortSegs := run(500)
	long, longSegs := run(5000)
	t.Logf("newest checkpoint frame: %d bytes at 500 commits, %d at 5,000; %d and %d live segments", short, long, shortSegs, longSegs)
	if d := long - short; d < 0 || d*10 > short {
		t.Fatalf("checkpoint frame grew from %d to %d bytes with 10x history; want within 10%%", short, long)
	}
	if shortSegs != longSegs {
		t.Fatalf("live segments %d at 500 commits, %d at 5,000; want equal", shortSegs, longSegs)
	}
}

// TestOutcomeReadRacesPrune reads outcomes around the retention floor,
// through Outcome and through GET /v1/auctions/{seq}, while commits
// advance the floor and checkpoints prune the segments behind it. A
// folded outcome is read from the log with the market's lock released,
// so a read can lose its segment to a prune. Every answer must be the
// exact committed record, pending, or ErrPruned (HTTP 410): never
// another record and never a 5xx.
//
// The readers straddle the floor by construction, not by the
// scheduler's grace: after each batch the writer waits until every
// reader has made one full pass over the seqs it cycles through, which
// reach from the newest commit to past the retention window.
func TestOutcomeReadRacesPrune(t *testing.T) {
	insts := marketInstances(t, 4)
	refs := make([]OutcomeRecord, len(insts))
	for i, inst := range insts {
		refs[i] = solveRecord(t, 0, inst)
	}
	expect := func(seq int) []byte {
		rec := refs[seq%len(refs)]
		rec.Seq = seq
		b, err := appendOutcomeBody(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const retain, total = 4, 240
	const cycle = 2*retain + 2 // seqs a reader cycles through below the newest
	m := openMarket(t, Config{
		Dir: t.TempDir(), Workers: 2, NoSync: true,
		CheckpointEvery: 3, RetainOutcomes: retain, SegmentRecords: 4,
	})
	h := Handler(m)

	var (
		served, gone atomic.Int64
		passes       [2]atomic.Int64 // completed read attempts per reader
		stop         = make(chan struct{})
		wg           sync.WaitGroup
	)
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReaders()
	for r := range passes {
		wg.Add(1)
		go func(viaHTTP bool, done *atomic.Int64) {
			defer wg.Done()
			for i := 0; ; i, _ = i+1, done.Add(1) {
				select {
				case <-stop:
					return
				default:
				}
				_, committed, _, _ := m.Counts()
				seq := committed - 1 - i%cycle
				if seq < 0 {
					continue
				}
				if viaHTTP {
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/v1/auctions/%d", seq), nil))
					switch rr.Code {
					case http.StatusOK:
						if want := append(expect(seq), '\n'); !bytes.Equal(rr.Body.Bytes(), want) {
							t.Errorf("GET %d = %s, want %s", seq, rr.Body.Bytes(), want)
							return
						}
						served.Add(1)
					case http.StatusGone:
						gone.Add(1)
					case http.StatusAccepted:
					default:
						t.Errorf("GET %d = %d %s", seq, rr.Code, rr.Body.Bytes())
						return
					}
					continue
				}
				rec, ok, err := m.Outcome(seq)
				switch {
				case errors.Is(err, ErrPruned):
					gone.Add(1)
				case err != nil:
					t.Errorf("Outcome(%d): %v", seq, err)
					return
				case ok:
					got, _ := appendOutcomeBody(nil, &rec)
					if want := expect(seq); !bytes.Equal(got, want) {
						t.Errorf("Outcome(%d) = %s, want %s", seq, got, want)
						return
					}
					served.Add(1)
				}
			}
		}(r == 1, &passes[r])
	}
	for done := 0; done < total; done += 6 {
		chunk := make([]batch.Instance, 6)
		for i := range chunk {
			chunk[i] = insts[(done+i)%len(insts)]
		}
		seqs, err := m.SubmitBatch(context.Background(), "c", chunk)
		if err != nil {
			t.Fatal(err)
		}
		// The window is shorter than a batch, so a seq can fold and be
		// evicted before its own Wait comes round.
		for _, seq := range seqs {
			if _, err := m.Wait(context.Background(), seq); err != nil && !errors.Is(err, ErrPruned) {
				t.Fatal(err)
			}
		}
		// The floor moved: wait for every reader to complete a full
		// cycle of attempts that all began after this batch committed
		// (one more than a cycle, for the attempt in flight now).
		for r := range passes {
			for want := passes[r].Load() + cycle + 1; passes[r].Load() < want; {
				if t.Failed() {
					t.FailNow()
				}
				runtime.Gosched()
			}
		}
	}
	stopReaders()
	t.Logf("%d reads served the record, %d answered pruned", served.Load(), gone.Load())
	if served.Load() == 0 || gone.Load() == 0 {
		t.Fatalf("%d reads served and %d pruned: the readers never straddled the floor", served.Load(), gone.Load())
	}
	if info := m.WALInfo(); info.Segments > 4 {
		t.Fatalf("%d live segments: pruning never caught up with the floor", info.Segments)
	}
}

// TestCheckpointReembedsWhatTheLogLacks restores the embedded-format
// checkpoint fixture and writes a new checkpoint while one of its
// embedded submissions is still pending. The new checkpoint embeds
// exactly the records the log holds no frame for — outcomes 2–5 and
// pending seq 7, restored from the old snapshot — and locates the rest.
// Recovery from it (a mixed snapshot) drains to the fixture's golden
// state.
func TestCheckpointReembedsWhatTheLogLacks(t *testing.T) {
	dir := copyFixture(t, "checkpoint_market")
	gate := make(chan struct{})
	m, err := Open(context.Background(), Config{
		Dir: dir, Workers: 2, CheckpointEvery: 1,
		// Hold seq 7's solve, so seq 8 commits and checkpoints first.
		Observer: obs.ObserverFunc(func(e obs.Event) {
			if e.Kind == obs.EvAuctionDequeued && e.Bid == 7 {
				<-gate
			}
		}),
		Crash: func(p string, seq int) bool { return p == CrashCheckpointWritten },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-m.Dead()
	close(gate)
	m.Close()

	ckpt, _ := newestCheckpoint(t, dir)
	var embedded, pending []int
	for _, oc := range ckpt.Outcomes {
		embedded = append(embedded, oc.Seq)
	}
	for _, p := range ckpt.Pending {
		pending = append(pending, p.Seq)
	}
	got := fmt.Sprint(embedded, refSeqs(ckpt.OutcomeAt), pending, refSeqs(ckpt.PendingAt))
	if want := "[2 3 4 5] [6 8] [7] [9]"; got != want {
		t.Fatalf("checkpoint embeds outcomes, locates outcomes, embeds pending, locates pending = %s; want %s", got, want)
	}

	m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for seq := 2; seq < 10; seq++ {
		if _, err := m2.Wait(context.Background(), seq); err != nil {
			t.Fatalf("Wait(%d): %v", seq, err)
		}
	}
	want := readFile(t, filepath.Join("testdata", "checkpoint_market.snapshot.json"))
	if got := m2.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("recovery from the mixed checkpoint diverged:\n got %s\nwant %s", got, want)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUnreadableOutcomeIs500: a folded outcome is read back from the
// log, so damage to its frame surfaces when it is read — as an error
// from Outcome and a 500 from GET /v1/auctions/{seq}, never as another
// record, a 404 or a 410 — while the outcomes around it still serve.
func TestUnreadableOutcomeIs500(t *testing.T) {
	insts := marketInstances(t, 3)
	dir := t.TempDir()
	m := openMarket(t, Config{Dir: dir, Workers: 1})
	for _, inst := range insts {
		seq, err := m.Submit(context.Background(), "c", inst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	at := m.frames[1]
	m.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(dir, WALFileName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'#'}, at.Off+20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, ok, err := m.Outcome(1); ok || err == nil || errors.Is(err, ErrPruned) || errors.Is(err, ErrUnknownSeq) {
		t.Fatalf("Outcome(1) on a damaged frame = ok %v, err %v; want a read error", ok, err)
	}
	h := Handler(m)
	for seq, want := range []int{http.StatusOK, http.StatusInternalServerError, http.StatusOK} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/v1/auctions/%d", seq), nil))
		if rr.Code != want {
			t.Fatalf("GET %d = %d %s, want %d", seq, rr.Code, rr.Body.Bytes(), want)
		}
	}
}

// TestCheckpointLocatesOutcomesPastAGap: an outcome that commits past a
// sequence gap is not folded yet, and a checkpoint taken then locates it
// like any other. Recovery reads it back after the scan and folds it
// once the gap's re-solve commits, reaching the golden state. Seq 0's
// solve is held while seq 1 commits and checkpoints, and the market
// dies right after that checkpoint.
func TestCheckpointLocatesOutcomesPastAGap(t *testing.T) {
	insts := marketInstances(t, 2)
	golden := goldenSnapshot(t, insts)
	dir := t.TempDir()
	gate := make(chan struct{})
	m, err := Open(context.Background(), Config{
		Dir: dir, Workers: 2, CheckpointEvery: 1,
		Observer: obs.ObserverFunc(func(e obs.Event) {
			if e.Kind == obs.EvAuctionDequeued && e.Bid == 0 {
				<-gate
			}
		}),
		Crash: func(p string, seq int) bool { return p == CrashCheckpointWritten },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitBatch(context.Background(), "c", insts); err != nil {
		t.Fatal(err)
	}
	<-m.Dead()
	close(gate)
	m.Close()

	ckpt, _ := newestCheckpoint(t, dir)
	if ckpt.FoldedNext != 0 || fmt.Sprint(refSeqs(ckpt.OutcomeAt), refSeqs(ckpt.PendingAt)) != "[1] [0]" {
		t.Fatalf("checkpoint folded to %d, locates outcomes %v and pending %v; want 0, [1] and [0]",
			ckpt.FoldedNext, refSeqs(ckpt.OutcomeAt), refSeqs(ckpt.PendingAt))
	}
	m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Wait(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := m2.Snapshot(); !bytes.Equal(got, golden) {
		t.Fatalf("recovery past a gap diverged:\n got %s\nwant %s", got, golden)
	}
}

// TestTailOutcomePastAGapServedInFull: replay decodes only the payments
// of a tail outcome record, so one still waiting past a sequence gap
// after the fold must be read back in full before anything serves it.
// With no checkpoint, seq 0's solve is held while seq 1 commits, and the
// market dies right after that commit. Reopened with seq 0's re-solve
// held again, the market serves seq 1's full record through Outcome and
// GET while seq 0 is still pending, and reaches the golden state once
// seq 0 commits.
func TestTailOutcomePastAGapServedInFull(t *testing.T) {
	insts := marketInstances(t, 2)
	golden := goldenSnapshot(t, insts)
	want := solveRecord(t, 1, insts[1])
	holdSeq0 := func(gate chan struct{}) obs.Observer {
		return obs.ObserverFunc(func(e obs.Event) {
			if e.Kind == obs.EvAuctionDequeued && e.Bid == 0 {
				<-gate
			}
		})
	}
	dir := t.TempDir()
	gate := make(chan struct{})
	m, err := Open(context.Background(), Config{
		Dir: dir, Workers: 2, Observer: holdSeq0(gate),
		Crash: func(p string, seq int) bool { return p == CrashPostCommit && seq == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitBatch(context.Background(), "c", insts); err != nil {
		t.Fatal(err)
	}
	<-m.Dead()
	close(gate)
	m.Close()

	gate = make(chan struct{})
	var release sync.Once
	m2, err := Open(context.Background(), Config{Dir: dir, Workers: 2, Observer: holdSeq0(gate)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	defer release.Do(func() { close(gate) })
	if _, done, err := m2.Outcome(0); done || err != nil {
		t.Fatalf("Outcome(0) with its re-solve held: done %v, err %v; want pending", done, err)
	}
	got, done, err := m2.Outcome(1)
	if err != nil || !done {
		t.Fatalf("Outcome(1) past the gap: done %v, err %v", done, err)
	}
	assertRecordEqual(t, got, want)
	var served OutcomeRecord
	if rr := doJSON(t, Handler(m2), "GET", "/v1/auctions/1", nil, &served); rr.Code != http.StatusOK {
		t.Fatalf("GET /v1/auctions/1 = %d %s", rr.Code, rr.Body.Bytes())
	}
	assertRecordEqual(t, served, want)

	release.Do(func() { close(gate) })
	if _, err := m2.Wait(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := m2.Snapshot(); !bytes.Equal(got, golden) {
		t.Fatalf("recovery past a tail gap diverged:\n got %s\nwant %s", got, golden)
	}
}

// TestLateWaitTakesParkedRecord: a commit that finds no waiter parks its
// record for the first Wait that asks, so a Wait arriving just after
// the commit does not read the log: it gets the record even with the
// frame damaged, and takes it, so the next Wait on that seq reads the
// frame and fails. At most maxParked records stay parked however many
// commits go unwaited.
func TestLateWaitTakesParkedRecord(t *testing.T) {
	insts := marketInstances(t, 2)
	dir := t.TempDir()
	m := openMarket(t, Config{Dir: dir, Workers: 1})
	seq, err := m.Submit(context.Background(), "c", insts[0])
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, committed, _, _ := m.Counts(); committed == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	want := solveRecord(t, seq, insts[0])
	m.mu.Lock()
	at := m.frames[seq]
	m.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(dir, WALFileName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'#'}, at.Off+20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := m.Wait(context.Background(), seq)
	if err != nil {
		t.Fatalf("late Wait: %v", err)
	}
	assertRecordEqual(t, got, want)
	if _, err := m.Wait(context.Background(), seq); err == nil {
		t.Fatal("second Wait served a record: the parked one was not taken, or the damaged frame read clean")
	}

	chunk := make([]batch.Instance, 2*maxParked)
	for i := range chunk {
		chunk[i] = insts[i%len(insts)]
	}
	if _, err := m.SubmitBatch(context.Background(), "c", chunk); err != nil {
		t.Fatal(err)
	}
	for {
		if _, committed, _, _ := m.Counts(); committed == 1+len(chunk) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.mu.Lock()
	parked, order := len(m.parked), len(m.parkOrder)
	m.mu.Unlock()
	if parked != maxParked || order != maxParked {
		t.Fatalf("%d records parked (%d in order) after %d unwaited commits; want %d", parked, order, len(chunk), maxParked)
	}
}

// appendCheckpointSegment rotates the market log in dir into a fresh
// checkpoint segment holding payload, as a market's checkpoint would.
func appendCheckpointSegment(t *testing.T, dir string, payload []byte) {
	t.Helper()
	log, _, err := wal.OpenDir(filepath.Join(dir, WALFileName), wal.DirOptions{}, nil)
	if err == nil {
		err = log.Rotate(true)
	}
	if err == nil {
		_, err = log.Append(payload)
	}
	if err == nil {
		err = log.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDropsCommittedPending: a checkpoint that lists a
// committed seq as pending, below its folded frontier or also located
// as an outcome, is damaged; the market never writes one. Recovery
// drops such a pending locator or embedded entry as a duplicate record,
// a dup_record fault, as it drops a tail bid record whose seq has
// committed. Kept, the seq would be re-solved on every restart and,
// since commit drops the outcome of a committed seq, never leave the
// pending set. Each case hand-writes a checkpoint over the log of five
// committed auctions; the market recovers with one fault and drains to
// the uninterrupted state with nothing pending.
func TestCheckpointDropsCommittedPending(t *testing.T) {
	ctx := context.Background()
	insts := marketInstances(t, 5)
	golden := goldenSnapshot(t, insts)
	ledgerOf := func(n int) []ledgerEntry {
		t.Helper()
		m, err := Open(ctx, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for _, inst := range insts[:n] {
			seq, err := m.Submit(ctx, "c", inst)
			if err == nil {
				_, err = m.Wait(ctx, seq)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ledger := m.Ledger()
		entries := make([]ledgerEntry, 0, len(ledger))
		for _, c := range sortedKeys(ledger) {
			entries = append(entries, ledgerEntry{Client: c, Payment: ledger[c]})
		}
		return entries
	}

	// One segment of the bid and outcome records of seqs 0–4, and where
	// each one is.
	src := t.TempDir()
	runMarket(t, Config{Dir: src, Workers: 1}, insts)
	bidAt, outcomeAt := map[int]frameRef{}, map[int]frameRef{}
	l, _, err := wal.OpenDir(filepath.Join(src, WALFileName), wal.DirOptions{NoSync: true}, func(pos wal.Pos, payload []byte) error {
		typ, seq, _, err := peekEnvelope(payload)
		if typ == recBid {
			bidAt[seq] = frameRef{Seq: seq, Seg: pos.Seg, Off: pos.Off}
		} else {
			outcomeAt[seq] = frameRef{Seq: seq, Seg: pos.Seg, Off: pos.Off}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	located := func(seqs ...int) frameRefs {
		var refs frameRefs
		for _, seq := range seqs {
			refs = append(refs, outcomeAt[seq])
		}
		return refs
	}
	cw, err := FromConfig(insts[3].Cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		ckpt checkpointRecord
	}{
		{"pending locator below the folded frontier", checkpointRecord{
			FoldedNext: 5, Ledger: ledgerOf(5), OutcomeAt: located(0, 1, 2, 3, 4), PendingAt: frameRefs{bidAt[2]},
		}},
		{"embedded pending entry below the folded frontier", checkpointRecord{
			FoldedNext: 5, Ledger: ledgerOf(5), OutcomeAt: located(0, 1, 2, 3, 4),
			Pending: []pendingEntry{{Seq: 3, Bids: insts[3].Bids, Cfg: &cw}},
		}},
		{"pending locator of an outcome past a gap", checkpointRecord{
			FoldedNext: 3, Ledger: ledgerOf(3), OutcomeAt: located(0, 1, 2, 4), PendingAt: frameRefs{bidAt[3], bidAt[4]},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, src, dir)
			rec := c.ckpt
			rec.Type, rec.Seq = recCheckpoint, 5
			payload, err := appendCheckpoint(nil, &rec)
			if err != nil {
				t.Fatal(err)
			}
			appendCheckpointSegment(t, dir, payload)

			m, err := Open(ctx, Config{Dir: dir, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for seq := 0; seq < 5; seq++ {
				if _, err := m.Wait(ctx, seq); err != nil {
					t.Fatalf("Wait(%d): %v", seq, err)
				}
			}
			if next, committed, pending, _ := m.Counts(); next != 5 || committed != 5 || pending != 0 {
				t.Fatalf("Counts() = next %d, committed %d, pending %d; want 5, 5 and 0", next, committed, pending)
			}
			if faults := m.RecoveredFaults(); faults != 1 {
				t.Fatalf("RecoveredFaults() = %d, want 1 (the committed seq listed as pending)", faults)
			}
			if got := m.Snapshot(); !bytes.Equal(got, golden) {
				t.Fatalf("recovery diverged:\n got %s\nwant %s", got, golden)
			}
		})
	}
}

// packLocators is the reference locator list, built from encoding/binary
// independently of the codec's row layouts: per locator, seq, segment
// and offset as varints, all base64-encoded.
func packLocators(refs []frameRef) string {
	var raw []byte
	for _, f := range refs {
		raw = binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(raw, int64(f.Seq)), int64(f.Seg)), f.Off)
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// TestPackedLocatorsUpgradeAndDowngrade pins the checkpoint's packed
// locator lists to their reference layout and checks both directions of
// the format change.
//
// Upgrade: a checkpoint as written before locators were packed, with
// the locator lists as arrays of objects, restores as its packed form
// does. The checkpoint fixture is reopened with seq 7's re-solve held
// and killed right after seq 8's commit wrote a checkpoint that locates
// outcomes 6 and 8 and pending seq 9. That checkpoint, rewritten with
// object arrays as a newer checkpoint segment, decodes to the same
// locators, and recovery from it drains to the fixture's golden state.
//
// Downgrade: the locator decoder of a binary from before packing, and
// encoding/json decoding into locator objects, reject a packed list with
// a type error, so such a binary refuses the checkpoint instead of
// restoring an empty index.
func TestPackedLocatorsUpgradeAndDowngrade(t *testing.T) {
	dir := copyFixture(t, "checkpoint_market")
	gate := make(chan struct{})
	m, err := Open(context.Background(), Config{
		Dir: dir, Workers: 2, CheckpointEvery: 1,
		Observer: obs.ObserverFunc(func(e obs.Event) {
			if e.Kind == obs.EvAuctionDequeued && e.Bid == 7 {
				<-gate
			}
		}),
		Crash: func(p string, seq int) bool { return p == CrashCheckpointWritten },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-m.Dead()
	close(gate)
	m.Close()

	ckpt, size := newestCheckpoint(t, dir)
	packed, err := appendCheckpoint(nil, &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != size {
		t.Fatalf("the newest checkpoint re-encodes to %d bytes, want its %d", len(packed), size)
	}
	for _, want := range []string{
		`,"outcome_at":"` + packLocators(ckpt.OutcomeAt) + `"`,
		`,"pending_at":"` + packLocators(ckpt.PendingAt) + `"`,
	} {
		if !bytes.Contains(packed, []byte(want)) {
			t.Fatalf("checkpoint %s does not hold %s", packed, want)
		}
	}
	if got := fmt.Sprint(refSeqs(ckpt.OutcomeAt), refSeqs(ckpt.PendingAt)); got != "[6 8] [9]" {
		t.Fatalf("checkpoint locates outcomes and pending %s, want [6 8] [9]", got)
	}

	objects, err := json.Marshal(struct {
		Type       string          `json:"type"`
		Seq        int             `json:"seq"`
		Base       int             `json:"base"`
		FoldedNext int             `json:"folded_next"`
		Ledger     []ledgerEntry   `json:"ledger,omitempty"`
		Outcomes   []OutcomeRecord `json:"outcomes,omitempty"`
		Pending    []pendingEntry  `json:"pending,omitempty"`
		OutcomeAt  []frameRef      `json:"outcome_at,omitempty"`
		PendingAt  []frameRef      `json:"pending_at,omitempty"`
	}{ckpt.Type, ckpt.Seq, ckpt.Base, ckpt.FoldedNext, ckpt.Ledger, ckpt.Outcomes, ckpt.Pending, ckpt.OutcomeAt, ckpt.PendingAt})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(objects, []byte(`"outcome_at":[{"seq":6,`)) {
		t.Fatalf("older checkpoint form %s holds no locator objects", objects)
	}
	for _, payload := range [][]byte{objects, packed} {
		rec, err := decodeCheckpoint(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ref checkpointRecord
		if err := json.Unmarshal(payload, &ref); err != nil {
			t.Fatal(err)
		}
		for _, got := range []checkpointRecord{rec, ref} {
			if !reflect.DeepEqual(got.OutcomeAt, ckpt.OutcomeAt) || !reflect.DeepEqual(got.PendingAt, ckpt.PendingAt) {
				t.Fatalf("%s decodes to locators %v and %v, want %v and %v", payload, got.OutcomeAt, got.PendingAt, ckpt.OutcomeAt, ckpt.PendingAt)
			}
		}
	}
	appendCheckpointSegment(t, dir, objects)
	m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for seq := 2; seq < 10; seq++ {
		if _, err := m2.Wait(context.Background(), seq); err != nil {
			t.Fatalf("Wait(%d): %v", seq, err)
		}
	}
	if got, want := m2.Snapshot(), readFile(t, filepath.Join("testdata", "checkpoint_market.snapshot.json")); !bytes.Equal(got, want) {
		t.Fatalf("recovery from locator objects diverged:\n got %s\nwant %s", got, want)
	}

	r := reader{p: packed}
	var refs []frameRef
	r.object("checkpointRecord", []string{"outcome_at"}, func(name string) {
		if name == "outcome_at" {
			decodeSlice(&r, &refs, "[]frameRef", r.frameRef)
		} else {
			r.skip()
		}
	})
	if r.err == nil || !strings.Contains(r.err.Error(), "cannot decode string into []frameRef") {
		t.Fatalf("the locator object decoder read %s with error %v; want a type error", packed, r.err)
	}
	var old struct {
		OutcomeAt []frameRef `json:"outcome_at"`
	}
	var typeErr *json.UnmarshalTypeError
	if err := json.Unmarshal(packed, &old); !errors.As(err, &typeErr) || typeErr.Value != "string" {
		t.Fatalf("encoding/json read %s into locator objects with error %v; want a type error", packed, err)
	}
}
