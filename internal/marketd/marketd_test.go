package marketd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/wal"
	"github.com/fedauction/afl/internal/workload"
)

// marketInstances draws n differently-seeded auction instances. The
// seed base is chosen so the instances used by the crash matrix are
// feasible with non-empty winner sets, so every commit moves the ledger.
func marketInstances(t testing.TB, n int) []batch.Instance {
	t.Helper()
	insts := make([]batch.Instance, n)
	for i := range insts {
		p := workload.NewDefaultParams()
		p.Seed = int64(4020 + i)
		p.Clients = 12
		p.T = 10 + i%4
		p.K = 3
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = batch.Instance{Bids: bids, Cfg: p.Config()}
	}
	return insts
}

// goldenSnapshot runs every instance through an uninterrupted durable
// market in its own directory and returns the canonical state.
func goldenSnapshot(t testing.TB, insts []batch.Instance) []byte {
	t.Helper()
	m, err := Open(context.Background(), Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		seq, err := m.Submit(context.Background(), "golden", inst)
		if err != nil {
			t.Fatalf("golden submit: %v", err)
		}
		if _, err := m.Wait(context.Background(), seq); err != nil {
			t.Fatalf("golden wait(%d): %v", seq, err)
		}
	}
	snap := m.Snapshot()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestVolatileMatchesSerial pins that a market with no durability
// directory is a transparent wrapper over the batch service: every
// committed outcome equals flattening the serial reference solve.
func TestVolatileMatchesSerial(t *testing.T) {
	insts := marketInstances(t, 4)
	m, err := Open(context.Background(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, inst := range insts {
		seq, err := m.Submit(context.Background(), "c", inst)
		if err != nil {
			t.Fatal(err)
		}
		if seq != i {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	for i, inst := range insts {
		got, err := m.Wait(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		ref := solveRecord(t, i, inst)
		assertRecordEqual(t, got, ref)
	}
}

// solveRecord solves one instance on the batch layer's serial reference
// path and flattens it to the durable form.
func solveRecord(t testing.TB, seq int, inst batch.Instance) OutcomeRecord {
	t.Helper()
	ocs, err := batch.Run(context.Background(), []batch.Instance{inst}, batch.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := recordFromOutcome(ocs[0])
	rec.Seq = seq
	return rec
}

func assertRecordEqual(t testing.TB, got, want OutcomeRecord) {
	t.Helper()
	gj, _ := encodeOutcomeRecord(got)
	wj, _ := encodeOutcomeRecord(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("outcome mismatch:\n got %s\nwant %s", gj, wj)
	}
}

// TestDurableRestartRestoresState pins the clean-shutdown path: close a
// durable market, reopen its directory, and the outcomes, ledger, and
// canonical snapshot are byte-identical — nothing is re-solved, nothing
// is lost.
func TestDurableRestartRestoresState(t *testing.T) {
	insts := marketInstances(t, 5)
	dir := t.TempDir()

	m1, err := Open(context.Background(), Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		seq, err := m1.Submit(context.Background(), "alice", inst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m1.Wait(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
	}
	snap1 := m1.Snapshot()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(context.Background(), Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if faults := m2.RecoveredFaults(); faults != 0 {
		t.Fatalf("clean restart absorbed %d faults, want 0", faults)
	}
	if next, committed, pending, _ := m2.Counts(); next != len(insts) || committed != len(insts) || pending != 0 {
		t.Fatalf("Counts() = next %d committed %d pending %d, want %d/%d/0",
			next, committed, pending, len(insts), len(insts))
	}
	if snap2 := m2.Snapshot(); !bytes.Equal(snap1, snap2) {
		t.Fatalf("snapshot changed across restart:\n pre %s\npost %s", snap1, snap2)
	}
}

// TestCrashPointsRecover drives the full crash matrix: for every point
// of the commit protocol, kill the market mid-flight on sequence 1,
// reopen the directory, finish the workload, and require the final
// state byte-identical to the uninterrupted golden run.
func TestCrashPointsRecover(t *testing.T) {
	insts := marketInstances(t, 4)
	golden := goldenSnapshot(t, insts)

	points := []string{CrashBidLogged, CrashOutcomeSolved, CrashPostCommit}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			m1, err := Open(context.Background(), Config{
				Dir: dir, Workers: 1,
				Crash: func(p string, seq int) bool { return p == point && seq == 1 },
			})
			if err != nil {
				t.Fatal(err)
			}
			// Seq 0 commits cleanly; seq 1 triggers the crash.
			if _, err := m1.Submit(context.Background(), "c", insts[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := m1.Wait(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := m1.Submit(context.Background(), "c", insts[1]); err != nil {
				t.Fatal(err)
			}
			<-m1.Dead()
			if !m1.Killed() {
				t.Fatal("market not killed")
			}
			if _, err := m1.Submit(context.Background(), "c", insts[2]); !errors.Is(err, ErrClosed) {
				t.Fatalf("Submit after kill = %v, want ErrClosed", err)
			}
			m1.Close()

			m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			// Seqs 0 and 1 must both exist exactly once; finish the tail.
			for seq := 0; seq < 2; seq++ {
				if _, err := m2.Wait(context.Background(), seq); err != nil {
					t.Fatalf("Wait(%d) after recovery: %v", seq, err)
				}
			}
			for _, inst := range insts[2:] {
				seq, err := m2.Submit(context.Background(), "c", inst)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m2.Wait(context.Background(), seq); err != nil {
					t.Fatal(err)
				}
			}
			if snap := m2.Snapshot(); !bytes.Equal(snap, golden) {
				t.Fatalf("recovered state diverged from golden after %s:\n got %s\nwant %s",
					point, snap, golden)
			}
		})
	}
}

// appendRecords appends payloads to the market log in dir and commits
// them, the way a crashed market would have left them.
func appendRecords(t testing.TB, dir string, payloads ...[]byte) {
	t.Helper()
	log, _, err := wal.OpenDir(filepath.Join(dir, WALFileName), wal.DirOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range payloads {
		if err := log.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverySkipsLegacyPayRecords hand-crafts the torn state the older
// commit protocol left when it died between a submission's pay records
// and its outcome record — bid record plus pay records with no commit
// marker — and pins that replay skips the pay records without counting
// a fault, keeps them out of the ledger, and re-solves the bid to the
// same committed outcome.
func TestRecoverySkipsLegacyPayRecords(t *testing.T) {
	insts := marketInstances(t, 1)
	golden := goldenSnapshot(t, insts)

	dir := t.TempDir()
	bid, err := encodeBidRecord(0, "crafted", insts[0])
	if err != nil {
		t.Fatal(err)
	}
	pay := []byte(`{"type":"pay","seq":0,"pay_client":3,"bid_index":7,"amount":99.5}`)
	appendRecords(t, dir, bid, pay, pay)

	m, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if faults := m.RecoveredFaults(); faults != 0 {
		t.Fatalf("RecoveredFaults() = %d, want 0 (pay records are skipped, not faults)", faults)
	}
	if _, err := m.Wait(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if snap := m.Snapshot(); !bytes.Equal(snap, golden) {
		t.Fatalf("legacy pay-record recovery diverged:\n got %s\nwant %s", snap, golden)
	}
	if pay := m.Ledger()[3]; pay > 200 {
		t.Fatalf("uncommitted pay record leaked into ledger: client 3 paid %v", pay)
	}
}

// TestRecoveryDropsDuplicateRecords pins the dedup-by-sequence policy: a
// WAL where the bid and commit records of a sequence appear twice
// replays to exactly one committed outcome and single-counted payments.
func TestRecoveryDropsDuplicateRecords(t *testing.T) {
	insts := marketInstances(t, 1)
	golden := goldenSnapshot(t, insts)

	dir := t.TempDir()
	m1, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Submit(context.Background(), "c", insts[0]); err != nil {
		t.Fatal(err)
	}
	rec, err := m1.Wait(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Duplicate the whole committed group: bid, then the commit marker.
	dupBid, err := encodeBidRecord(0, "c", insts[0])
	if err != nil {
		t.Fatal(err)
	}
	dupOutcome, err := encodeOutcomeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, dir, dupBid, dupOutcome)

	m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if faults := m2.RecoveredFaults(); faults != 2 {
		t.Fatalf("RecoveredFaults() = %d, want 2 (dup bid + dup outcome)", faults)
	}
	if snap := m2.Snapshot(); !bytes.Equal(snap, golden) {
		t.Fatalf("duplicate replay diverged:\n got %s\nwant %s", snap, golden)
	}
}

// TestSubmitBatchAckedPrefixIsDurable: when a batch's bid record fails
// to encode part-way, SubmitBatch acknowledges the submissions before it
// and fails the rest, and the acknowledged ones are on disk before it
// returns. A kill that drops the log's unflushed buffer must not lose
// them, with or without group commit.
func TestSubmitBatchAckedPrefixIsDurable(t *testing.T) {
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			insts := marketInstances(t, 2)
			golden := goldenSnapshot(t, insts[:1])
			bad := insts[1]
			bad.Bids = append([]core.Bid(nil), bad.Bids...)
			bad.Bids[0].Price = math.NaN() // has no JSON form

			dir := t.TempDir()
			m1, err := Open(context.Background(), Config{Dir: dir, Workers: 1, GroupCommit: group})
			if err != nil {
				t.Fatal(err)
			}
			// The failed batch is never queued, so nothing else appends or
			// commits before the kill.
			seqs, err := m1.SubmitBatch(context.Background(), "c", []batch.Instance{insts[0], bad})
			if err == nil || len(seqs) != 2 || seqs[0] != 0 || seqs[1] != -1 {
				t.Fatalf("SubmitBatch = %v, %v; want [0 -1] and an encode error", seqs, err)
			}
			m1.mu.Lock()
			m1.killLocked()
			m1.mu.Unlock()
			m1.Close()

			m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			if _, err := m2.Wait(context.Background(), 0); err != nil {
				t.Fatalf("acknowledged seq 0 lost by the kill: %v", err)
			}
			if snap := m2.Snapshot(); !bytes.Equal(snap, golden) {
				t.Fatalf("recovered state diverged:\n got %s\nwant %s", snap, golden)
			}
		})
	}
}

// TestRecoveryTruncatesTornTail appends garbage half-frame bytes to a
// committed log and pins that reopening absorbs the tear (counted as one
// fault), keeps all committed state, and physically truncates the file.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	insts := marketInstances(t, 2)
	dir := t.TempDir()

	m1, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		seq, err := m1.Submit(context.Background(), "c", inst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m1.Wait(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
	}
	snap1 := m1.Snapshot()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, WALFileName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if faults := m2.RecoveredFaults(); faults != 1 {
		t.Fatalf("RecoveredFaults() = %d, want 1 (torn tail)", faults)
	}
	if snap2 := m2.Snapshot(); !bytes.Equal(snap1, snap2) {
		t.Fatalf("torn-tail recovery changed state:\n pre %s\npost %s", snap1, snap2)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Fatalf("tail not truncated back to committed bytes: %d bytes, want %d", len(after), len(clean))
	}
}

// TestWaitAndOutcomeSentinels pins the query-side error contract.
func TestWaitAndOutcomeSentinels(t *testing.T) {
	m, err := Open(context.Background(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Outcome(7); !errors.Is(err, ErrUnknownSeq) {
		t.Fatalf("Outcome(unknown) err = %v, want ErrUnknownSeq", err)
	}
	if _, err := m.Wait(context.Background(), -1); !errors.Is(err, ErrUnknownSeq) {
		t.Fatalf("Wait(-1) err = %v, want ErrUnknownSeq", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), "c", marketInstances(t, 1)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}
