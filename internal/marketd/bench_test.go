package marketd

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// cpuMeter sums the process CPU time of a benchmark's timed windows.
// Fsync waits dominate a durable benchmark's wall time and vary with the
// host's disk, so wall time alone does not show a change in the work the
// process does.
type cpuMeter struct{ start, total time.Duration }

// begin opens a timed window; end closes it.
func (c *cpuMeter) begin() { c.start = processCPU() }
func (c *cpuMeter) end()   { c.total += processCPU() - c.start }

// report adds the CPU milliseconds per op as cpu-ms/op where a process
// CPU clock is read (Linux).
func (c *cpuMeter) report(b *testing.B) {
	if haveProcessCPU {
		b.ReportMetric(float64(c.total)/1e6/float64(b.N), "cpu-ms/op")
	}
}

// BenchmarkDurableIngest times fully durable ingest: 16 submitters push
// auctions through a market that makes every Submit and commit durable
// before acknowledging it, concurrent commits sharing fsyncs. One op is
// one acknowledged, committed auction; allocations count the whole
// pipeline. It reports the process CPU per auction, the fsyncs per
// auction and the WAL records per fsync. Before timing, one auction's
// outcome is checked against the serial reference solve.
func BenchmarkDurableIngest(b *testing.B) {
	const submitters = 16
	ctx := context.Background()
	inst := benchInstance(b)
	want := solveRecord(b, 0, inst)
	m, err := Open(ctx, Config{Dir: b.TempDir(), Workers: submitters})
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
	var cpu cpuMeter
	b.ReportAllocs()
	b.ResetTimer()
	cpu.begin()
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
	cpu.end()
	b.StopTimer()
	info := m.WALInfo()
	syncs := info.Syncs - before.Syncs
	cpu.report(b)
	b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/auction")
	b.ReportMetric(float64(info.Records-before.Records)/float64(syncs), "records/fsync")
}

// buildHistory writes n committed auctions into dir without fsync (the
// bytes on disk are the same), cycling through pool in batches of 100.
// With checkpoints it checkpoints every 1000 commits into 8 MiB segments
// and retains 1000 outcomes, the shape checkpoints exist for; without
// them the log is one segment holding all of history. It returns the
// config that reopens dir that way.
func buildHistory(b *testing.B, dir string, pool []batch.Instance, n int, checkpoints bool) Config {
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
	for i := 0; i < n; i += len(chunk) {
		for j := range chunk {
			chunk[j] = pool[(i+j)%len(pool)]
		}
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
			pool := []batch.Instance{inst}
			cfgs := map[string]Config{
				"off": buildHistory(b, b.TempDir(), pool, n, false),
				"on":  buildHistory(b, b.TempDir(), pool, n, true),
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

// restartPending is the number of acknowledged submissions a restart
// directory holds uncommitted, as perfbench's restart workload does.
const restartPending = 8

// restartPool draws n feasible auctions of perfbench's small shape, 50
// clients with 2 bids each, T=10 and K=3.
func restartPool(b *testing.B, n int) []batch.Instance {
	b.Helper()
	var pool []batch.Instance
	for seed := int64(1); len(pool) < n; seed++ {
		p := workload.NewDefaultParams()
		p.Seed, p.Clients, p.BidsPerUser, p.T, p.K = seed, 50, 2, 10, 3
		bids, err := workload.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		if inst := (batch.Instance{Bids: bids, Cfg: p.Config()}); solveRecord(b, 0, inst).Feasible {
			pool = append(pool, inst)
		}
	}
	return pool
}

// restartDir is a market directory with a committed history and
// restartPending submissions logged but never solved, and what reopening
// it must commit.
type restartDir struct {
	dir     string
	pending map[int]OutcomeRecord // seq -> the serial solve of each uncommitted submission
	ledger  map[int]float64       // the ledger once they commit
}

// buildRestart writes history committed auctions from pool into dir
// with checkpoints (see buildHistory), then logs restartPending more and
// kills the market at the bid_logged crash point, so none is solved.
func buildRestart(b *testing.B, dir string, pool []batch.Instance, history int) *restartDir {
	b.Helper()
	cfg := buildHistory(b, dir, pool, history, true)
	cfg.Crash = func(point string, seq int) bool { return point == CrashBidLogged }
	m := openBench(b, cfg)
	rd := &restartDir{dir: dir, pending: map[int]OutcomeRecord{}, ledger: m.Ledger()}
	insts := make([]batch.Instance, restartPending)
	for i := range insts {
		insts[i] = pool[(history+i)%len(pool)]
	}
	seqs, err := m.SubmitBatch(context.Background(), "hist", insts)
	if err != nil || !m.Killed() {
		b.Fatalf("pending batch: seqs %v, error %v, killed %v; want a kill after logging", seqs, err, m.Killed())
	}
	m.Close()
	// The ledger folds the pending payments in ascending seq order.
	for i, seq := range seqs {
		rec := solveRecord(b, seq, insts[i])
		rd.pending[seq] = rec
		for _, w := range rec.Winners {
			rd.ledger[w.Client] += w.Payment
		}
	}
	return rd
}

// BenchmarkRestart is perfbench's restart operation. A directory holds
// a history of committed 50×2-bid auctions, checkpointed every 1000
// commits into 8 MiB segments with 1000 outcomes retained, and 8
// submissions logged but not solved. One op reopens a copy of it
// durably and waits until the 8 have committed; the copy and the close
// are outside the timer. Before timing, one restart must commit each of
// the 8 as the serial solve does and reach the build's ledger plus their
// payments, bit for bit. It reports the process CPU per restart, the WAL
// records the restart replayed and the live WAL size. The timed window
// runs under the pprof label op=restart, which the market's goroutines
// inherit, so a -cpuprofile of it is read with -tagfocus op=restart.
func BenchmarkRestart(b *testing.B) {
	ctx := context.Background()
	pool := restartPool(b, 64)
	root := b.TempDir()
	for _, history := range []int{1_500, 20_500} {
		var rd *restartDir
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			cfg := Config{
				Dir:             filepath.Join(b.TempDir(), "copy"),
				CheckpointEvery: 1000, SegmentBytes: 8 << 20, RetainOutcomes: 1000,
			}
			copyPristine := func() {
				os.RemoveAll(cfg.Dir)
				copyDir(b, rd.dir, cfg.Dir)
			}
			// wait returns once every pending submission has committed.
			wait := func(m *Market) map[int]OutcomeRecord {
				got := make(map[int]OutcomeRecord, len(rd.pending))
				for seq := range rd.pending {
					rec, err := m.Wait(ctx, seq)
					if err != nil {
						b.Fatal(err)
					}
					got[seq] = rec
				}
				return got
			}
			if rd == nil {
				rd = buildRestart(b, filepath.Join(root, fmt.Sprint(history)), pool, history)
				copyPristine()
				m := openBench(b, cfg)
				for seq, rec := range wait(m) {
					assertRecordEqual(b, rec, rd.pending[seq])
				}
				if _, committed, pending, _ := m.Counts(); committed != history+restartPending || pending != 0 {
					b.Fatalf("restart holds %d committed and %d pending auctions, want %d and 0", committed, pending, history+restartPending)
				}
				if got := m.Ledger(); !maps.EqualFunc(got, rd.ledger, func(x, y float64) bool {
					return math.Float64bits(x) == math.Float64bits(y)
				}) {
					b.Fatalf("restart ledger %v, want %v", got, rd.ledger)
				}
				m.Close()
			}
			var info WALInfo
			var cpu cpuMeter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copyPristine()
				b.StartTimer()
				cpu.begin()
				var m *Market
				pprof.Do(ctx, pprof.Labels("op", "restart"), func(context.Context) {
					m = openBench(b, cfg)
					wait(m)
				})
				cpu.end()
				b.StopTimer()
				info = m.WALInfo()
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			cpu.report(b)
			b.ReportMetric(float64(info.TailReplayed), "tail-records")
			b.ReportMetric(float64(info.Bytes)/1e6, "live-MB")
		})
	}
}
