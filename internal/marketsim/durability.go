package marketsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/marketd"
	"github.com/fedauction/afl/internal/workload"
)

// IngestRow is one cell of the sustained-ingest table: N concurrent
// submitters pushing auctions through a fully durable market (every
// commit fsynced before its ack), with and without group commit.
type IngestRow struct {
	Mode           string  `json:"mode"` // "serial-fsync" | "group-commit"
	Submitters     int     `json:"submitters"`
	Auctions       int     `json:"auctions"`
	ElapsedMs      float64 `json:"elapsed_ms"`
	AuctionsPerSec float64 `json:"auctions_per_sec"`
	// AllocsPerAuction is the whole-pipeline heap-allocation count per
	// committed auction (submit, WAL encode/append, solve, commit, ack),
	// from runtime.MemStats deltas.
	AllocsPerAuction float64 `json:"allocs_per_auction"`
	// Fsyncs counts the WAL's fsync calls for the run; RecordsPerFsync
	// is the realized coalescing factor (≈1 for serial fsync).
	Fsyncs          int64   `json:"fsyncs"`
	RecordsPerFsync float64 `json:"records_per_fsync"`
}

// RecoveryRow is one cell of the recovery-time-vs-history table: a
// market directory holding History committed auctions is reopened cold
// and the replay cost measured, with and without checkpoints.
type RecoveryRow struct {
	History     int     `json:"history"`
	Checkpoints bool    `json:"checkpoints"`
	OpenMs      float64 `json:"open_ms"`
	// TailReplayed is how many WAL records recovery actually replayed:
	// the full history without checkpoints, the post-checkpoint tail
	// with them.
	TailReplayed int   `json:"tail_replayed"`
	WALBytes     int64 `json:"wal_bytes"`
	Segments     int   `json:"wal_segments"`
	// StateVerified reports that the recovered state was checked against
	// the uncheckpointed replay of the same workload (byte-identical
	// snapshots at small histories, ledger equality at large ones).
	StateVerified bool `json:"state_verified"`
}

// DurabilityBench is the fast-path section of BENCH_market.json.
type DurabilityBench struct {
	Ingest   []IngestRow   `json:"ingest,omitempty"`
	Recovery []RecoveryRow `json:"recovery,omitempty"`
}

// DurabilityOptions shapes RunDurabilityBench.
type DurabilityOptions struct {
	// Auctions per ingest run (default 400; quick 120).
	Auctions int
	// Submitters is the ingest concurrency (default 16 — enough
	// in-flight commits for the group-commit syncer to coalesce; the
	// serial-fsync baseline is insensitive to it, every append being
	// serialized behind its own flush anyway).
	Submitters int
	// Histories for the recovery table (default 1e3..1e6, quick 1e3..1e4).
	Histories []int
	// CheckpointEvery for the checkpointed recovery runs (default 1000).
	CheckpointEvery int
	Quick           bool
}

func (o *DurabilityOptions) defaults() {
	if o.Auctions == 0 {
		o.Auctions = 400
		if o.Quick {
			o.Auctions = 120
		}
	}
	if o.Submitters == 0 {
		o.Submitters = 16
	}
	if len(o.Histories) == 0 {
		o.Histories = []int{1_000, 10_000, 100_000, 1_000_000}
		if o.Quick {
			o.Histories = []int{1_000, 10_000}
		}
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 1000
	}
}

// benchInstance is the smallest meaningful auction: the durability
// benches measure the WAL and recovery machinery, so the solve must
// cost as little as possible without becoming degenerate.
func benchInstance(seed int64) (batch.Instance, error) {
	p := workload.NewDefaultParams()
	p.Seed = seed
	p.Clients = 4
	p.BidsPerUser = 2
	p.T = 6
	p.K = 1
	bids, err := workload.Generate(p)
	if err != nil {
		return batch.Instance{}, err
	}
	return batch.Instance{Bids: bids, Cfg: p.Config()}, nil
}

// RunDurabilityBench measures the market fast path: sustained fully
// durable ingest with and without group commit, and cold-restart
// recovery time against history length with and without checkpoints.
func RunDurabilityBench(ctx context.Context, opts DurabilityOptions) (DurabilityBench, error) {
	opts.defaults()
	var out DurabilityBench

	inst, err := benchInstance(1)
	if err != nil {
		return out, err
	}

	// Ingest throughput is noisy (fsync cost on the bench host varies
	// run to run), so each mode reports the median of three runs.
	const ingestReps = 3
	for _, group := range []bool{false, true} {
		rows := make([]IngestRow, 0, ingestReps)
		for r := 0; r < ingestReps; r++ {
			row, err := runIngest(ctx, inst, opts, group)
			if err != nil {
				return out, err
			}
			rows = append(rows, row)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].AuctionsPerSec < rows[j].AuctionsPerSec })
		out.Ingest = append(out.Ingest, rows[len(rows)/2])
	}

	for _, h := range opts.Histories {
		for _, ckpt := range []bool{false, true} {
			row, err := runRecovery(ctx, inst, h, ckpt, opts)
			if err != nil {
				return out, err
			}
			out.Recovery = append(out.Recovery, row)
		}
	}
	return out, nil
}

func runIngest(ctx context.Context, inst batch.Instance, opts DurabilityOptions, group bool) (IngestRow, error) {
	dir, err := os.MkdirTemp("", "afl-ingest-*")
	if err != nil {
		return IngestRow{}, err
	}
	defer os.RemoveAll(dir)

	mode := "serial-fsync"
	cfg := marketd.Config{Dir: dir, Workers: opts.Submitters}
	if group {
		mode = "group-commit"
		cfg.GroupCommit = true
	}
	m, err := marketd.Open(ctx, cfg)
	if err != nil {
		return IngestRow{}, err
	}
	defer m.Close()

	n := opts.Auctions
	var wg sync.WaitGroup
	errs := make(chan error, opts.Submitters)
	work := make(chan int)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for w := 0; w < opts.Submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				seq, err := m.Submit(ctx, "bench", inst)
				if err != nil {
					errs <- err
					return
				}
				if _, err := m.Wait(ctx, seq); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	select {
	case err := <-errs:
		return IngestRow{}, fmt.Errorf("ingest %s: %w", mode, err)
	default:
	}

	info := m.WALInfo()
	row := IngestRow{
		Mode:             mode,
		Submitters:       opts.Submitters,
		Auctions:         n,
		ElapsedMs:        float64(elapsed.Microseconds()) / 1e3,
		AuctionsPerSec:   float64(n) / elapsed.Seconds(),
		AllocsPerAuction: float64(after.Mallocs-before.Mallocs) / float64(n),
		Fsyncs:           info.Syncs,
	}
	if info.Syncs > 0 {
		row.RecordsPerFsync = float64(info.Records) / float64(info.Syncs)
	}
	return row, nil
}

// buildHistory fills dir with n committed auctions of inst, fsync-free
// (history construction is not the thing being measured). Checkpointed
// histories also bound retention to one checkpoint interval — the
// deployment shape checkpoints exist for: without it the snapshot
// embeds all of history and restoring it is O(history) again.
func buildHistory(ctx context.Context, dir string, inst batch.Instance, n, checkpointEvery int) error {
	cfg := marketd.Config{Dir: dir, Workers: runtime.GOMAXPROCS(0), NoSync: true}
	if checkpointEvery > 0 {
		cfg.CheckpointEvery = checkpointEvery
		cfg.SegmentBytes = 8 << 20
		cfg.RetainOutcomes = checkpointEvery
	}
	m, err := marketd.Open(ctx, cfg)
	if err != nil {
		return err
	}
	defer m.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	work := make(chan struct{})
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				seq, err := m.Submit(ctx, "hist", inst)
				if err == nil {
					_, err = m.Wait(ctx, seq)
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	return m.Close()
}

func runRecovery(ctx context.Context, inst batch.Instance, history int, ckpt bool, opts DurabilityOptions) (RecoveryRow, error) {
	dir, err := os.MkdirTemp("", "afl-recovery-*")
	if err != nil {
		return RecoveryRow{}, err
	}
	defer os.RemoveAll(dir)

	every := 0
	if ckpt {
		every = opts.CheckpointEvery
	}
	if err := buildHistory(ctx, dir, inst, history, every); err != nil {
		return RecoveryRow{}, fmt.Errorf("build history %d (ckpt=%v): %w", history, ckpt, err)
	}

	cfg := marketd.Config{Dir: dir, Workers: 1, NoSync: true, CheckpointEvery: every}
	if every > 0 {
		cfg.RetainOutcomes = every
	}
	start := time.Now()
	m, err := marketd.Open(ctx, cfg)
	if err != nil {
		return RecoveryRow{}, fmt.Errorf("reopen history %d (ckpt=%v): %w", history, ckpt, err)
	}
	openMs := float64(time.Since(start).Microseconds()) / 1e3
	defer m.Close()

	info := m.WALInfo()
	row := RecoveryRow{
		History:      history,
		Checkpoints:  ckpt,
		OpenMs:       openMs,
		TailReplayed: info.TailReplayed,
		WALBytes:     info.Bytes,
		Segments:     info.Segments,
	}

	// Equivalence check at small histories: the checkpointed recovery
	// must agree with an uncheckpointed full replay of the same workload
	// — the ledger exactly (it folds all of history, including pruned
	// outcomes) and every retained outcome byte-for-byte. Large
	// histories skip the second full build to keep the bench tractable;
	// the marketd test suite carries the equivalence proof.
	if ckpt && history <= 10_000 {
		refDir, err := os.MkdirTemp("", "afl-recovery-ref-*")
		if err != nil {
			return row, err
		}
		defer os.RemoveAll(refDir)
		if err := buildHistory(ctx, refDir, inst, history, 0); err != nil {
			return row, err
		}
		ref, err := marketd.Open(ctx, marketd.Config{Dir: refDir, Workers: 1, NoSync: true})
		if err != nil {
			return row, err
		}
		defer ref.Close()
		lg, rg := m.Ledger(), ref.Ledger()
		if len(lg) != len(rg) {
			return row, fmt.Errorf("checkpointed ledger has %d clients, full replay %d", len(lg), len(rg))
		}
		for c, p := range rg {
			if lg[c] != p {
				return row, fmt.Errorf("checkpointed ledger diverged for client %d: %g vs %g", c, lg[c], p)
			}
		}
		for seq := history - opts.CheckpointEvery; seq < history; seq++ {
			if seq < 0 {
				continue
			}
			got, ok, err := m.Outcome(seq)
			if !ok || err != nil {
				continue // outside the retained window
			}
			want, _, err := ref.Outcome(seq)
			if err != nil {
				return row, err
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if !bytes.Equal(gj, wj) {
				return row, fmt.Errorf("checkpointed outcome %d diverged from full replay", seq)
			}
		}
		row.StateVerified = true
	}
	return row, nil
}
