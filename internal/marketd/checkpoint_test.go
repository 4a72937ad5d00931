package marketd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/obs"
)

// runMarket opens a market with cfg (Dir filled by the caller), submits
// every instance, waits for all commits, snapshots, and closes.
func runMarket(t testing.TB, cfg Config, insts []batch.Instance) []byte {
	t.Helper()
	m, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		seq, err := m.Submit(context.Background(), "c", inst)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, err := m.Wait(context.Background(), seq); err != nil {
			t.Fatalf("wait(%d): %v", seq, err)
		}
	}
	snap := m.Snapshot()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCheckpointRecoveryMatchesFullReplay is the tentpole equivalence:
// a checkpointing market's recovered state is byte-identical to the
// unbounded-log replay of the same workload, while replaying only the
// tail since the last checkpoint.
func TestCheckpointRecoveryMatchesFullReplay(t *testing.T) {
	insts := marketInstances(t, 9)
	golden := goldenSnapshot(t, insts)

	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 1, CheckpointEvery: 3}
	if got := runMarket(t, cfg, insts); !bytes.Equal(got, golden) {
		t.Fatalf("checkpointing run diverged from golden:\n got %s\nwant %s", got, golden)
	}

	m, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if snap := m.Snapshot(); !bytes.Equal(snap, golden) {
		t.Fatalf("checkpoint recovery diverged from golden:\n got %s\nwant %s", snap, golden)
	}
	info := m.WALInfo()
	if info.LastCheckpointSeq != 9 {
		t.Fatalf("LastCheckpointSeq = %d, want 9", info.LastCheckpointSeq)
	}
	// 9 commits, checkpoint every 3: the newest checkpoint covers all 9,
	// so recovery replays an empty tail.
	if info.TailReplayed != 0 {
		t.Fatalf("TailReplayed = %d, want 0 (recovery should start at the newest checkpoint)", info.TailReplayed)
	}
	if info.Segments > 2 {
		t.Fatalf("pruning left %d segments", info.Segments)
	}
	next, committed, pending, _ := m.Counts()
	if next != 9 || committed != 9 || pending != 0 {
		t.Fatalf("Counts = %d/%d/%d, want 9/9/0", next, committed, pending)
	}
}

// TestCheckpointMidTailRecovery: commits past the last checkpoint live
// only in the tail; recovery replays exactly them.
func TestCheckpointMidTailRecovery(t *testing.T) {
	insts := marketInstances(t, 8)
	golden := goldenSnapshot(t, insts)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 1, CheckpointEvery: 3}
	runMarket(t, cfg, insts) // checkpoints after 3 and 6; seqs 6,7 in the tail

	m, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if snap := m.Snapshot(); !bytes.Equal(snap, golden) {
		t.Fatal("mid-tail recovery diverged from golden")
	}
	info := m.WALInfo()
	if info.LastCheckpointSeq != 6 {
		t.Fatalf("LastCheckpointSeq = %d, want 6", info.LastCheckpointSeq)
	}
	// Two committed auctions after the checkpoint: tail = their bid and
	// outcome records.
	if info.TailReplayed != 4 {
		t.Fatalf("TailReplayed = %d, want 4 (bid+outcome of seqs 6 and 7)", info.TailReplayed)
	}
}

// TestCheckpointCrashPointsRecover drives the two checkpoint crash
// points and requires recovery to converge to the golden state.
func TestCheckpointCrashPointsRecover(t *testing.T) {
	insts := marketInstances(t, 7)
	golden := goldenSnapshot(t, insts)
	for _, point := range []string{CrashCheckpointRotated, CrashCheckpointWritten} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			armed := true
			cfg := Config{
				Dir: dir, Workers: 1, CheckpointEvery: 3,
				Crash: func(p string, seq int) bool {
					if armed && p == point {
						armed = false
						return true
					}
					return false
				},
			}
			m, err := Open(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range insts {
				seq, serr := m.Submit(context.Background(), "c", inst)
				if serr != nil {
					break // killed mid-run; recovery takes over
				}
				if _, werr := m.Wait(context.Background(), seq); werr != nil {
					break
				}
			}
			if !m.Killed() {
				t.Fatalf("crash point %s never fired", point)
			}
			m.Close()

			// Reopen without the crash hook and finish the workload.
			m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1, CheckpointEvery: 3})
			if err != nil {
				t.Fatalf("reopen after %s: %v", point, err)
			}
			defer m2.Close()
			next, _, _, _ := m2.Counts()
			for i := next; i < len(insts); i++ {
				seq, serr := m2.Submit(context.Background(), "c", insts[i])
				if serr != nil {
					t.Fatal(serr)
				}
				if _, werr := m2.Wait(context.Background(), seq); werr != nil {
					t.Fatal(werr)
				}
			}
			// Wait for any recovered pending submissions too.
			for i := 0; i < len(insts); i++ {
				if _, err := m2.Wait(context.Background(), i); err != nil {
					t.Fatalf("wait(%d) after recovery: %v", i, err)
				}
			}
			if snap := m2.Snapshot(); !bytes.Equal(snap, golden) {
				t.Fatalf("recovery after %s diverged from golden:\n got %s\nwant %s", point, snap, golden)
			}
		})
	}
}

// TestRetentionPrunesOutcomes: a bounded retention window serves old
// seqs as ErrPruned while the ledger keeps their payments, across
// restarts and checkpoints.
func TestRetentionPrunesOutcomes(t *testing.T) {
	insts := marketInstances(t, 8)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 1, CheckpointEvery: 3, RetainOutcomes: 2}

	unbounded := Config{Dir: t.TempDir(), Workers: 1}
	mRef, err := Open(context.Background(), unbounded)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		seq, _ := mRef.Submit(context.Background(), "c", inst)
		if _, err := mRef.Wait(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
	}
	refLedger := mRef.Ledger()
	mRef.Close()

	m, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		seq, _ := m.Submit(context.Background(), "c", inst)
		if _, err := m.Wait(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
	}
	ledger := m.Ledger()
	if len(ledger) != len(refLedger) {
		t.Fatalf("retention changed the ledger: %v vs %v", ledger, refLedger)
	}
	for c, p := range refLedger {
		if ledger[c] != p {
			t.Fatalf("ledger[%d] = %v, want %v", c, ledger[c], p)
		}
	}
	if _, _, err := m.Outcome(0); !errors.Is(err, ErrPruned) {
		t.Fatalf("Outcome(0) err = %v, want ErrPruned", err)
	}
	if _, err := m.Wait(context.Background(), 0); !errors.Is(err, ErrPruned) {
		t.Fatalf("Wait(0) err = %v, want ErrPruned", err)
	}
	if _, ok, err := m.Outcome(7); !ok || err != nil {
		t.Fatalf("Outcome(7) = ok %v err %v, want retained", ok, err)
	}
	m.Close()

	// Restart: the retention state survives through the checkpoint.
	m2, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, _, err := m2.Outcome(1); !errors.Is(err, ErrPruned) {
		t.Fatalf("restart Outcome(1) err = %v, want ErrPruned", err)
	}
	ledger2 := m2.Ledger()
	for c, p := range refLedger {
		if ledger2[c] != p {
			t.Fatalf("restart ledger[%d] = %v, want %v", c, ledger2[c], p)
		}
	}
}

// TestGroupCommitMarket: a group-commit market under concurrent
// submitters solves every instance to its serial-reference outcome,
// survives restart byte-identically, and fsyncs fewer times than it
// writes records. Seq assignment races between submitters, so outcomes
// are checked per instance rather than against the ordered golden.
//
// The sharing is forced, not left to the scheduler: the observer holds
// the syncer inside its first group commit until all eight bid records
// are appended, so the next fsync covers every bid not yet durable.
// Every later fsync covers at least one new outcome record (the syncer
// skips wake-ups that find everything durable), which bounds the fsyncs
// at 1 + 1 + 8 = 10, below the 16 of one fsync per record.
func TestGroupCommitMarket(t *testing.T) {
	insts := marketInstances(t, 8)
	dir := t.TempDir()
	var (
		m    *Market
		hold sync.Once
	)
	allBidsAppended := func() bool {
		next, _, _, _ := m.Counts()
		return next == len(insts)
	}
	observer := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind != obs.EvGroupCommit {
			return
		}
		hold.Do(func() {
			deadline := time.Now().Add(10 * time.Second)
			for !allBidsAppended() {
				if time.Now().After(deadline) {
					t.Errorf("bid records never all appended while the first group commit was held")
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	})
	cfg := Config{Dir: dir, Workers: 2, GroupCommit: true, Observer: observer}

	var err error
	m, err = Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	seqs := make([]int, len(insts))
	errCh := make(chan error, len(insts))
	for i := range insts {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq, err := m.Submit(context.Background(), "c", insts[i])
			if err != nil {
				errCh <- err
				return
			}
			seqs[i] = seq
			if _, err := m.Wait(context.Background(), seq); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		rec, ok, err := m.Outcome(seq)
		if !ok || err != nil {
			t.Fatalf("Outcome(%d) = ok %v err %v", seq, ok, err)
		}
		assertRecordEqual(t, rec, solveRecord(t, seq, insts[i]))
	}
	info := m.WALInfo()
	// 8 bid + 8 outcome records. Group commit must have coalesced at
	// least some fsyncs.
	if info.Records != 16 {
		t.Fatalf("WAL holds %d records, want 16 (8 bids + 8 outcomes)", info.Records)
	}
	if info.Syncs >= 16 {
		t.Fatalf("group commit did not coalesce: %d fsyncs", info.Syncs)
	}
	snap := m.Snapshot()
	m.Close()

	m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Snapshot(); !bytes.Equal(got, snap) {
		t.Fatalf("group-commit restart diverged:\n got %s\nwant %s", got, snap)
	}
}

// TestGroupCommitWithCheckpoints combines every fast-path feature and
// still requires golden-state equality across a restart.
func TestGroupCommitWithCheckpoints(t *testing.T) {
	insts := marketInstances(t, 9)
	golden := goldenSnapshot(t, insts)
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, Workers: 2, GroupCommit: true,
		CheckpointEvery: 4, SegmentRecords: 6,
	}
	if got := runMarket(t, cfg, insts); !bytes.Equal(got, golden) {
		t.Fatal("combined fast-path run diverged from golden")
	}
	m, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if snap := m.Snapshot(); !bytes.Equal(snap, golden) {
		t.Fatal("combined fast-path recovery diverged from golden")
	}
}

// TestSubmitBatchMatchesLoop: a batched submission commits the same
// state as a loop of single submissions of the same instances.
func TestSubmitBatchMatchesLoop(t *testing.T) {
	insts := marketInstances(t, 5)
	golden := goldenSnapshot(t, insts)
	dir := t.TempDir()
	m, err := Open(context.Background(), Config{Dir: dir, Workers: 2, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := m.SubmitBatch(context.Background(), "c", insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(insts) {
		t.Fatalf("SubmitBatch returned %d seqs, want %d", len(seqs), len(insts))
	}
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("seqs[%d] = %d, want consecutive from 0", i, seq)
		}
		if _, err := m.Wait(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	m.Close()
	if !bytes.Equal(snap, golden) {
		t.Fatalf("batched submission diverged from golden:\n got %s\nwant %s", snap, golden)
	}
}

// TestCheckpointPendingEntriesCommitOrSurvive: recovery keeps a
// checkpoint's pending entries undecoded until the scan is over. Entries
// whose outcome arrives in the tail are dropped, and only the survivors
// are decoded and re-solved. One batch of eight is logged before any
// commit; with one worker the checkpoint after seq 2 holds pending seqs
// 3–7, seqs 3 and 4 commit in the tail, and the market dies before seq
// 5's outcome, so 5–7 survive. A tail bid record repeating a pending
// entry's seq is a duplicate: counted as a fault, never re-solved twice.
func TestCheckpointPendingEntriesCommitOrSurvive(t *testing.T) {
	insts := marketInstances(t, 8)
	golden := goldenSnapshot(t, insts)
	for _, dup := range []bool{false, true} {
		t.Run(fmt.Sprintf("duplicate=%v", dup), func(t *testing.T) {
			dir := t.TempDir()
			m, err := Open(context.Background(), Config{
				Dir: dir, Workers: 1, CheckpointEvery: 3,
				Crash: func(p string, seq int) bool { return p == CrashOutcomeSolved && seq == 5 },
			})
			if err != nil {
				t.Fatal(err)
			}
			seqs, _ := m.SubmitBatch(context.Background(), "c", insts)
			if !allLogged(seqs, len(insts)) {
				t.Fatalf("SubmitBatch seqs = %v, want all eight logged", seqs)
			}
			<-m.Dead()
			m.Close()
			wantTail, wantFaults := 2, 0 // the outcomes of seqs 3 and 4
			if dup {
				bid, err := encodeBidRecord(6, "c", insts[6])
				if err != nil {
					t.Fatal(err)
				}
				appendRecords(t, dir, bid)
				wantTail, wantFaults = 3, 1
			}

			var (
				mu        sync.Mutex
				recovered []obs.Event
			)
			observer := obs.ObserverFunc(func(e obs.Event) {
				if e.Kind == obs.EvMarketRecovered {
					mu.Lock()
					recovered = append(recovered, e)
					mu.Unlock()
				}
			})
			m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1, CheckpointEvery: 3, Observer: observer})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			for seq := range insts {
				if _, err := m2.Wait(context.Background(), seq); err != nil {
					t.Fatalf("Wait(%d) after recovery: %v", seq, err)
				}
			}
			if snap := m2.Snapshot(); !bytes.Equal(snap, golden) {
				t.Fatalf("recovery diverged from golden:\n got %s\nwant %s", snap, golden)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(recovered) != 1 || recovered[0].Round != 3 {
				t.Fatalf("market_recovered events %+v, want one with Round 3 (seqs 5-7 re-queued)", recovered)
			}
			if tail := m2.WALInfo().TailReplayed; tail != wantTail {
				t.Fatalf("TailReplayed = %d, want %d", tail, wantTail)
			}
			if faults := m2.RecoveredFaults(); faults != wantFaults {
				t.Fatalf("RecoveredFaults() = %d, want %d", faults, wantFaults)
			}
		})
	}
}
