package marketd

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/fedauction/afl/internal/obs"
)

// copyFixture copies the fixture directory testdata/name into a fresh
// temporary directory and returns it, so a test never writes to the
// committed bytes.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", name), dir)
	return dir
}

// copyDir copies the files of directory src into dst, creating dst.
func copyDir(tb testing.TB, src, dst string) {
	tb.Helper()
	entries, err := os.ReadDir(src)
	if err == nil {
		err = os.MkdirAll(dst, 0o755)
	}
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCheckpointFixtureReplay opens a market directory whose checkpoint
// embeds its retained outcomes and its pending submissions in full: the
// snapshot format markets wrote before checkpoints pointed into the log.
// The directory holds that checkpoint segment (outcomes 2–5 embedded,
// pending seqs 6 and 7 embedded), a tail with seq 6's outcome and seq
// 8's bid record, and a plain segment with seq 9's bid record. Seq 7
// was killed after its solve, before its outcome record. Recovery must
// drop the pending entry whose outcome the tail holds, re-solve seqs 7,
// 8 and 9, and reach the recorded canonical state byte for byte.
//
// The fixture was written from marketInstances(t, 10) with Workers 1,
// CheckpointEvery 3, RetainOutcomes 4 and SegmentRecords 3. The first
// lifetime logged seqs 0–7 in one batch, checkpointed after seqs 2 and
// 5 (pruning everything before the second checkpoint) and was killed
// at seq 6's outcome_solved. The second lifetime committed seq 6, held
// seq 7's re-solve at dequeue while seqs 8 and 9 were logged in one
// batch, and was killed at seq 7's outcome_solved. The golden snapshot
// is the state the same code reached after reopening with Workers 1 and
// draining: outcomes 2–9 (0 and 1 were below the checkpoint's retention
// floor) and the ledger over all ten.
func TestCheckpointFixtureReplay(t *testing.T) {
	dir := copyFixture(t, "checkpoint_market")
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
	m, err := Open(context.Background(), Config{Dir: dir, Workers: 1, Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mu.Lock()
	// Retained at recovery: seqs 2–6. Re-queued: seqs 7, 8 and 9.
	if len(recovered) != 1 || recovered[0].Value != 5 || recovered[0].Round != 3 {
		t.Fatalf("market_recovered events %+v, want one with Value 5 and Round 3", recovered)
	}
	mu.Unlock()
	next, _, _, _ := m.Counts()
	if next != 10 {
		t.Fatalf("next seq %d after recovery, want 10", next)
	}
	for seq := 2; seq < next; seq++ {
		if _, err := m.Wait(context.Background(), seq); err != nil {
			t.Fatalf("Wait(%d): %v", seq, err)
		}
	}
	if _, committed, pending, _ := m.Counts(); committed != 10 || pending != 0 {
		t.Fatalf("Counts after drain: %d committed, %d pending; want 10 and 0", committed, pending)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "checkpoint_market.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint fixture replayed to a different state:\n got %s\nwant %s", got, want)
	}
}
