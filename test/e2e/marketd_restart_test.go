// Package e2e is the kill/restart harness for the durable market
// daemon. Each test starts the daemon in-process, murders it at a
// WAL-fault-injected point mid-batch, restarts it over the same
// directory, and requires the recovered state byte-identical to an
// uninterrupted golden run — zero lost, zero duplicated sequence
// numbers, whatever the crash left on disk.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/marketd"
	"github.com/fedauction/afl/internal/wal"
	"github.com/fedauction/afl/internal/workload"
)

// script is one seeded random kill scenario: how many auctions flow,
// where the process dies, and what extra damage the "disk" takes.
type script struct {
	actions  int    // auctions in the workload
	crashSeq int    // sequence number whose processing kills the market
	point    string // crash point within the commit protocol
	tail     string // post-mortem tail fault: "none", "torn", "dup"
}

var (
	crashPoints = []string{
		marketd.CrashBidLogged, marketd.CrashOutcomeSolved, marketd.CrashPostCommit,
	}
	tailFaults = []string{"none", "torn", "dup"}
)

// genScript draws one scenario from a seeded generator, so every CI run
// replays the identical kill schedule.
func genScript(seed int64) script {
	r := rand.New(rand.NewSource(seed))
	a := 6 + r.Intn(7) // 6..12 auctions
	return script{
		actions:  a,
		crashSeq: 1 + r.Intn(a-1),
		point:    crashPoints[r.Intn(len(crashPoints))],
		tail:     tailFaults[r.Intn(len(tailFaults))],
	}
}

// scriptInstances derives the workload from the same seed: small
// populations keep a full scenario under a second.
func scriptInstances(t testing.TB, seed int64, n int) []batch.Instance {
	t.Helper()
	insts := make([]batch.Instance, n)
	for i := range insts {
		p := workload.NewDefaultParams()
		p.Seed = seed*1000003 + int64(i)
		p.Clients = 12
		p.T = 10 + i%3
		p.K = 3
		bids, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = batch.Instance{Bids: bids, Cfg: p.Config()}
	}
	return insts
}

// snapshotState is the decoded form of Market.Snapshot.
type snapshotState struct {
	Outcomes []marketd.OutcomeRecord `json:"outcomes"`
	Ledger   []struct {
		Client  int     `json:"client"`
		Payment float64 `json:"payment"`
	} `json:"ledger"`
}

func decodeSnapshot(t testing.TB, snap []byte) snapshotState {
	t.Helper()
	var st snapshotState
	if err := json.Unmarshal(snap, &st); err != nil {
		t.Fatalf("undecodable snapshot %q: %v", snap, err)
	}
	return st
}

// goldenRun solves the whole workload on an uninterrupted durable
// market and returns its canonical state.
func goldenRun(t testing.TB, insts []batch.Instance) []byte {
	t.Helper()
	m, err := marketd.Open(context.Background(), marketd.Config{Dir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range insts {
		if _, err := m.Submit(context.Background(), fmt.Sprintf("c%d", i%3), inst); err != nil {
			t.Fatalf("golden submit %d: %v", i, err)
		}
	}
	for i := range insts {
		if _, err := m.Wait(context.Background(), i); err != nil {
			t.Fatalf("golden wait %d: %v", i, err)
		}
	}
	snap := m.Snapshot()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// injectTailFault damages the WAL the way a real crash can: a torn
// partial frame appended at the tail, or the last complete frame
// duplicated. Committed bytes are never rewritten — recovery must keep
// all of them.
func injectTailFault(t testing.TB, dir, fault string) {
	t.Helper()
	if fault == "none" {
		return
	}
	path := filepath.Join(dir, marketd.WALFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var extra []byte
	switch fault {
	case "torn":
		// A header promising 64 payload bytes followed by 3: the torn
		// write of a record that never finished.
		extra = []byte{64, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd, 1, 2, 3}
	case "dup":
		// Re-append the last complete frame verbatim.
		var last []byte
		for rest := data; ; {
			_, n, ok := wal.DecodeFrame(rest)
			if !ok {
				break
			}
			last = rest[:n]
			rest = rest[n:]
		}
		if last == nil {
			t.Fatal("no complete frame to duplicate")
		}
		extra = last
	default:
		t.Fatalf("unknown tail fault %q", fault)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(extra); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartBitIdenticalRecovery is the headline e2e: for a set of
// seeded scripts, run the workload into a crash-point kill plus a tail
// fault, restart over the same directory, finish the workload, and
// require the final snapshot byte-identical to the golden run with
// every sequence number present exactly once.
func TestKillRestartBitIdenticalRecovery(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := genScript(seed)
			insts := scriptInstances(t, seed, sc.actions)
			golden := goldenRun(t, insts)

			dir := t.TempDir()
			m1, err := marketd.Open(context.Background(), marketd.Config{
				Dir: dir, Workers: 2,
				Crash: func(p string, seq int) bool { return p == sc.point && seq == sc.crashSeq },
			})
			if err != nil {
				t.Fatal(err)
			}
			// Fire the whole batch without waiting — the kill lands
			// mid-batch, with submissions in the queue and on workers.
			acked := 0
			for i, inst := range insts {
				seq, err := m1.Submit(context.Background(), fmt.Sprintf("c%d", i%3), inst)
				if seq < 0 {
					if !errors.Is(err, marketd.ErrClosed) {
						t.Fatalf("submit %d: %v", i, err)
					}
					break // market already dead; the rest goes to the restart
				}
				if seq != i {
					t.Fatalf("submit %d acked as seq %d", i, seq)
				}
				acked++
			}
			<-m1.Dead()
			if !m1.Killed() {
				t.Fatal("market survived its crash point")
			}
			m1.Close()
			if acked <= sc.crashSeq {
				t.Fatalf("crash target %d not acked (acked %d)", sc.crashSeq, acked)
			}

			injectTailFault(t, dir, sc.tail)

			// Restart over the wreckage, finish the workload.
			m2, err := marketd.Open(context.Background(), marketd.Config{Dir: dir, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			if sc.tail != "none" && m2.RecoveredFaults() == 0 {
				t.Fatalf("tail fault %q absorbed without being counted", sc.tail)
			}
			for seq := 0; seq < acked; seq++ {
				if _, err := m2.Wait(context.Background(), seq); err != nil {
					t.Fatalf("recovered wait %d: %v", seq, err)
				}
			}
			for i := acked; i < len(insts); i++ {
				seq, err := m2.Submit(context.Background(), fmt.Sprintf("c%d", i%3), insts[i])
				if err != nil {
					t.Fatalf("post-restart submit %d: %v", i, err)
				}
				if seq != i {
					t.Fatalf("post-restart submit %d acked as seq %d", i, seq)
				}
				if _, err := m2.Wait(context.Background(), seq); err != nil {
					t.Fatal(err)
				}
			}

			snap := m2.Snapshot()
			if !bytes.Equal(snap, golden) {
				t.Fatalf("recovered state diverged from golden (point %s, tail %s):\n got %s\nwant %s",
					sc.point, sc.tail, snap, golden)
			}
			st := decodeSnapshot(t, snap)
			if len(st.Outcomes) != sc.actions {
				t.Fatalf("%d outcomes, want %d", len(st.Outcomes), sc.actions)
			}
			for i, oc := range st.Outcomes {
				if oc.Seq != i {
					t.Fatalf("outcome %d carries seq %d: lost or duplicated sequence", i, oc.Seq)
				}
			}
		})
	}
}

// TestRestartIdempotentAcrossRepeatedKills kills the market at the same
// point twice in a row — recover, kill again mid-recovery workload,
// recover again — pinning that recovery composes: a WAL that has
// already absorbed one crash absorbs the next the same way.
func TestRestartIdempotentAcrossRepeatedKills(t *testing.T) {
	insts := scriptInstances(t, 99, 6)
	golden := goldenRun(t, insts)
	dir := t.TempDir()

	submitAll := func(m *marketd.Market, from int) int {
		acked := from
		for i := from; i < len(insts); i++ {
			seq, err := m.Submit(context.Background(), "c", insts[i])
			if seq < 0 {
				if !errors.Is(err, marketd.ErrClosed) {
					t.Fatalf("submit %d: %v", i, err)
				}
				break
			}
			if seq != i {
				t.Fatalf("submit %d acked as seq %d", i, seq)
			}
			acked++
		}
		return acked
	}

	m1, err := marketd.Open(context.Background(), marketd.Config{
		Dir: dir, Workers: 1,
		Crash: func(p string, seq int) bool { return p == marketd.CrashOutcomeSolved && seq == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	acked := submitAll(m1, 0)
	<-m1.Dead()
	m1.Close()

	// Second lifetime: dies again, this time post-commit on seq 3. The
	// kill can land while Open is still re-queuing the backlog, in which
	// case Open itself reports the death — both shapes are legitimate
	// crash timings and recovery must absorb either.
	m2, err := marketd.Open(context.Background(), marketd.Config{
		Dir: dir, Workers: 1,
		Crash: func(p string, seq int) bool { return p == marketd.CrashPostCommit && seq == 3 },
	})
	if err == nil {
		acked = submitAll(m2, acked)
		<-m2.Dead()
		m2.Close()
	}

	// Third lifetime survives and finishes.
	m3, err := marketd.Open(context.Background(), marketd.Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	for i := acked; i < len(insts); i++ {
		if _, err := m3.Submit(context.Background(), "c", insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range insts {
		if _, err := m3.Wait(context.Background(), i); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	if snap := m3.Snapshot(); !bytes.Equal(snap, golden) {
		t.Fatalf("state diverged after two kills:\n got %s\nwant %s", snap, golden)
	}
}

// injectSegmentFault damages the segmented WAL the way a crash during
// the checkpoint machinery can: a torn partial frame at the tail of the
// newest segment, or the newest checkpoint record cut off mid-write.
// Committed bytes in earlier segments are never rewritten.
func injectSegmentFault(t testing.TB, dir, fault string) {
	t.Helper()
	if fault == "none" {
		return
	}
	segs, err := wal.Segments(filepath.Join(dir, marketd.WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments to damage")
	}
	switch fault {
	case "torn-tail":
		last := segs[len(segs)-1].Path
		f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{64, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	case "torn-ckpt":
		// Cut the newest checkpoint segment off mid-record: its first
		// frame turns invalid, so recovery must fall back to the previous
		// start point. When the crash landed between rotation and the
		// snapshot append the segment is already empty — that IS the
		// mid-checkpoint wreckage, nothing more to do.
		for i := len(segs) - 1; i >= 0; i-- {
			if !segs[i].Checkpoint {
				continue
			}
			if segs[i].Size > 0 {
				if err := os.Truncate(segs[i].Path, segs[i].Size/2); err != nil {
					t.Fatal(err)
				}
			}
			return
		}
	default:
		t.Fatalf("unknown segment fault %q", fault)
	}
}

// TestKillRestartCheckpointMatrix extends the kill/restart matrix to
// the checkpoint machinery: the market dies inside checkpointLocked —
// between rotation and the snapshot append, or after the snapshot but
// before the prune — optionally with the wreckage further damaged
// (torn active-segment tail, torn checkpoint record). Recovery must
// still converge byte-identically to the uninterrupted golden run.
func TestKillRestartCheckpointMatrix(t *testing.T) {
	points := []string{marketd.CrashCheckpointRotated, marketd.CrashCheckpointWritten}
	faults := []string{"none", "torn-tail", "torn-ckpt"}
	for pi, point := range points {
		for fi, fault := range faults {
			point, fault := point, fault
			t.Run(fmt.Sprintf("%s/%s", point, fault), func(t *testing.T) {
				t.Parallel()
				seed := int64(40 + pi*10 + fi)
				insts := scriptInstances(t, seed, 9)
				golden := goldenRun(t, insts)

				dir := t.TempDir()
				cfg := marketd.Config{
					Dir: dir, Workers: 2,
					CheckpointEvery: 3, SegmentRecords: 8,
					Crash: func(p string, seq int) bool { return p == point },
				}
				m1, err := marketd.Open(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				acked := 0
				for i, inst := range insts {
					seq, err := m1.Submit(context.Background(), fmt.Sprintf("c%d", i%3), inst)
					if seq < 0 {
						if !errors.Is(err, marketd.ErrClosed) {
							t.Fatalf("submit %d: %v", i, err)
						}
						break
					}
					if seq != i {
						t.Fatalf("submit %d acked as seq %d", i, seq)
					}
					acked++
				}
				<-m1.Dead()
				if !m1.Killed() {
					t.Fatalf("market survived crash point %s", point)
				}
				m1.Close()

				injectSegmentFault(t, dir, fault)

				m2, err := marketd.Open(context.Background(), marketd.Config{
					Dir: dir, Workers: 2,
					CheckpointEvery: 3, SegmentRecords: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer m2.Close()
				for seq := 0; seq < acked; seq++ {
					if _, err := m2.Wait(context.Background(), seq); err != nil {
						t.Fatalf("recovered wait %d: %v", seq, err)
					}
				}
				for i := acked; i < len(insts); i++ {
					seq, err := m2.Submit(context.Background(), fmt.Sprintf("c%d", i%3), insts[i])
					if err != nil {
						t.Fatalf("post-restart submit %d: %v", i, err)
					}
					if seq != i {
						t.Fatalf("post-restart submit %d acked as seq %d", i, seq)
					}
					if _, err := m2.Wait(context.Background(), seq); err != nil {
						t.Fatal(err)
					}
				}
				snap := m2.Snapshot()
				if !bytes.Equal(snap, golden) {
					t.Fatalf("recovered state diverged from golden (point %s, fault %s):\n got %s\nwant %s",
						point, fault, snap, golden)
				}
			})
		}
	}
}

// TestKillRestartSegmentedMatrix reruns the commit-protocol crash-point
// matrix on a fully configured fast-path market — segment rotation and
// periodic checkpoints — so every crash point stays byte-identical under
// that machinery too.
func TestKillRestartSegmentedMatrix(t *testing.T) {
	const firstSeed, lastSeed = 21, 31
	covered := map[string]bool{}
	for seed := int64(firstSeed); seed <= lastSeed; seed++ {
		covered[genScript(seed).point] = true
	}
	for _, point := range crashPoints {
		if !covered[point] {
			t.Fatalf("seeds %d..%d never run crash point %s", firstSeed, lastSeed, point)
		}
	}
	for seed := int64(firstSeed); seed <= lastSeed; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := genScript(seed)
			insts := scriptInstances(t, seed, sc.actions)
			golden := goldenRun(t, insts)

			dir := t.TempDir()
			cfg := marketd.Config{
				Dir: dir, Workers: 2,
				CheckpointEvery: 2, SegmentRecords: 6,
				Crash: func(p string, seq int) bool { return p == sc.point && seq == sc.crashSeq },
			}
			m1, err := marketd.Open(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for i, inst := range insts {
				seq, err := m1.Submit(context.Background(), fmt.Sprintf("c%d", i%3), inst)
				if seq < 0 {
					if !errors.Is(err, marketd.ErrClosed) {
						t.Fatalf("submit %d: %v", i, err)
					}
					break
				}
				acked++
			}
			<-m1.Dead()
			if !m1.Killed() {
				t.Fatal("market survived its crash point")
			}
			m1.Close()
			if acked <= sc.crashSeq {
				t.Fatalf("crash target %d not acked (acked %d)", sc.crashSeq, acked)
			}

			m2, err := marketd.Open(context.Background(), marketd.Config{
				Dir: dir, Workers: 2,
				CheckpointEvery: 2, SegmentRecords: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			for seq := 0; seq < acked; seq++ {
				if _, err := m2.Wait(context.Background(), seq); err != nil {
					t.Fatalf("recovered wait %d: %v", seq, err)
				}
			}
			for i := acked; i < len(insts); i++ {
				if _, err := m2.Submit(context.Background(), fmt.Sprintf("c%d", i%3), insts[i]); err != nil {
					t.Fatalf("post-restart submit %d: %v", i, err)
				}
				if _, err := m2.Wait(context.Background(), i); err != nil {
					t.Fatal(err)
				}
			}
			if snap := m2.Snapshot(); !bytes.Equal(snap, golden) {
				t.Fatalf("recovered state diverged from golden (point %s):\n got %s\nwant %s", sc.point, snap, golden)
			}
		})
	}
}
