package marketd

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/workload"
)

// benchInstance is the smallest meaningful auction: these benchmarks time
// the WAL and recovery, so the solve costs as little as it can without
// becoming degenerate. It is checked feasible, so every commit moves the
// ledger.
func benchInstance(b *testing.B) batch.Instance {
	b.Helper()
	p := workload.NewDefaultParams()
	p.Seed, p.Clients, p.BidsPerUser, p.T, p.K = 1, 4, 2, 6, 1
	bids, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	inst := batch.Instance{Bids: bids, Cfg: p.Config()}
	if !solveRecord(b, 0, inst).Feasible {
		b.Fatal("benchmark instance is infeasible")
	}
	return inst
}

// BenchmarkDurableIngest times fully durable ingest: 16 submitters push
// auctions through a market that fsyncs every Submit and commit before
// acknowledging it, each fsync on its own (serial-fsync) or coalesced
// across requests (group-commit). One op is one acknowledged, committed
// auction; allocations count the whole pipeline. It reports the fsyncs
// per auction and the WAL records per fsync. Before timing, one auction's
// outcome is checked against the serial reference solve.
func BenchmarkDurableIngest(b *testing.B) {
	const submitters = 16
	ctx := context.Background()
	inst := benchInstance(b)
	want := solveRecord(b, 0, inst)
	for _, mode := range []struct {
		name  string
		group bool
	}{{"serial-fsync", false}, {"group-commit", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m, err := Open(ctx, Config{Dir: b.TempDir(), Workers: submitters, GroupCommit: mode.group})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			seq, err := m.Submit(ctx, "bench", inst)
			if err != nil {
				b.Fatal(err)
			}
			got, err := m.Wait(ctx, seq)
			if err != nil {
				b.Fatal(err)
			}
			assertRecordEqual(b, got, want)
			before := m.WALInfo()
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < submitters; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						seq, err := m.Submit(ctx, "bench", inst)
						if err == nil {
							_, err = m.Wait(ctx, seq)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			info := m.WALInfo()
			syncs := info.Syncs - before.Syncs
			b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/auction")
			b.ReportMetric(float64(info.Records-before.Records)/float64(syncs), "records/fsync")
		})
	}
}

// buildHistory writes n committed auctions of inst into dir without fsync
// (the bytes on disk are the same). With checkpoints it checkpoints every
// 1000 commits into 8 MiB segments and retains 1000 outcomes, the shape
// checkpoints exist for; without them the log is one segment holding all
// of history. It returns the config that reopens dir that way.
func buildHistory(b *testing.B, dir string, inst batch.Instance, n int, checkpoints bool) Config {
	b.Helper()
	cfg := Config{Dir: dir, NoSync: true}
	if checkpoints {
		cfg.CheckpointEvery, cfg.SegmentBytes, cfg.RetainOutcomes = 1000, 8<<20, 1000
	}
	m, err := Open(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]batch.Instance, 100)
	for i := range chunk {
		chunk[i] = inst
	}
	for i := 0; i < n; i += len(chunk) {
		if _, err := m.SubmitBatch(context.Background(), "hist", chunk[:min(len(chunk), n-i)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
	cfg.Workers = 1
	return cfg
}

// BenchmarkRecovery times cold restarts against history length, with and
// without checkpoints. Each directory is built once; each op opens and
// closes a fresh copy of it, copied outside the timer. It reports the WAL
// records the restart replayed and the live WAL size. Before timing, the
// checkpointed restart must recover the full replay's ledger exactly and
// serve every outcome it retains byte for byte as the full replay does.
func BenchmarkRecovery(b *testing.B) {
	inst := benchInstance(b)
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("history=%d", n), func(b *testing.B) {
			cfgs := map[string]Config{
				"off": buildHistory(b, b.TempDir(), inst, n, false),
				"on":  buildHistory(b, b.TempDir(), inst, n, true),
			}
			full, ckpt := openBench(b, cfgs["off"]), openBench(b, cfgs["on"])
			for _, m := range []*Market{full, ckpt} {
				if _, committed, pending, _ := m.Counts(); committed != n || pending != 0 {
					b.Fatalf("restart holds %d committed and %d pending auctions, want %d and 0", committed, pending, n)
				}
			}
			if !maps.Equal(ckpt.Ledger(), full.Ledger()) {
				b.Fatal("checkpointed ledger differs from the full replay's")
			}
			retained := 0
			for seq := 0; seq < n; seq++ {
				got, _, err := ckpt.Outcome(seq)
				if errors.Is(err, ErrPruned) {
					continue
				}
				want, _, werr := full.Outcome(seq)
				if err != nil || werr != nil {
					b.Fatalf("outcome %d: checkpointed restart %v, full replay %v", seq, err, werr)
				}
				assertRecordEqual(b, got, want)
				retained++
			}
			if retained == 0 {
				b.Fatal("checkpointed restart retains no outcome")
			}
			full.Close()
			ckpt.Close()
			for _, mode := range []string{"off", "on"} {
				b.Run("checkpoints="+mode, func(b *testing.B) {
					cfg := cfgs[mode]
					src, dst := cfg.Dir, filepath.Join(b.TempDir(), "copy")
					cfg.Dir = dst
					var info WALInfo
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						os.RemoveAll(dst)
						copyDir(b, src, dst)
						b.StartTimer()
						m := openBench(b, cfg)
						info = m.WALInfo()
						if err := m.Close(); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(info.TailReplayed), "tail-records")
					b.ReportMetric(float64(info.Bytes)/1e6, "live-MB")
				})
			}
		})
	}
}

func openBench(b *testing.B, cfg Config) *Market {
	b.Helper()
	m, err := Open(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}
