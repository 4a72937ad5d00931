package marketd

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestLegacyFixtureReplay opens a market directory written by the older
// commit protocol, which logged one pay record per winner ahead of each
// outcome record. The directory holds a checkpoint segment, a tail of
// committed auctions with their pay records, the pay records of an
// auction killed before its outcome record, and a bid killed before it
// was queued. Recovery must re-solve both uncommitted submissions and
// reach the recorded canonical state byte for byte.
//
// The fixture was written by that protocol from marketInstances(t, 8)
// without its seventh instance, with CheckpointEvery 3 and
// SegmentRecords 12. Seqs 0–4 committed, then the market was killed
// after seq 5's pay records and before its outcome record. A second
// lifetime held seq 5's re-solve at dequeue while seq 6's bid was
// logged, and was killed right after that bid. The golden snapshot is
// the state the same code reached after reopening and draining, which
// equals an uninterrupted run of the same seven instances.
func TestLegacyFixtureReplay(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "legacy_market")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Open(context.Background(), Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	next, _, _, _ := m.Counts()
	for seq := 0; seq < next; seq++ {
		if _, err := m.Wait(context.Background(), seq); err != nil {
			t.Fatalf("Wait(%d): %v", seq, err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "legacy_market.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("legacy log replayed to a different state:\n got %s\nwant %s", got, want)
	}
}
