package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/fedauction/afl"
	"github.com/fedauction/afl/internal/marketd"
)

// restart: cold restarts of one pristine market directory written with
// the market-http options. It holds restartHistory committed small
// auctions, ending half a checkpoint interval past its last checkpoint,
// plus restartPending acknowledged-but-uncommitted submissions (the
// market is killed at the bid_logged crash point right after logging
// them). Each sample copies the directory (untimed) and times
// OpenMarket until every re-queued submission has committed.
//
// Checkpoints prune everything before them, so a restart reads only the
// last snapshot (ledger, 1000 retained outcomes, pending) and the tail.
const (
	restartHistory = 20*1000 + 500
	restartPending = 8
	restartPool    = 256
	restartTailQ   = 0.90
	restartBatch   = 50
)

// pristine is a built restart directory and what recovery must produce.
type pristine struct {
	dir       string
	pool      *smallPool
	pending   map[int]int // seq -> pool index of each uncommitted submission
	ledger    map[int]float64
	committed int
	bytes     int64
}

// buildPristine writes the restart directory through the market itself.
// It runs without fsync (the bytes on disk are the same; only power-loss
// durability differs) and submits in batches, so set-up stays short.
func buildPristine(ctx context.Context, dir string, pool *smallPool, history, pending int) (*pristine, error) {
	var armed atomic.Bool
	m, err := marketd.Open(ctx, marketd.Config{
		Dir:             dir,
		NoSync:          true,
		GroupCommit:     true,
		CheckpointEvery: 1000,
		SegmentBytes:    8 << 20,
		RetainOutcomes:  1000,
		Crash: func(point string, seq int) bool {
			return point == marketd.CrashBidLogged && armed.Load()
		},
	})
	if err != nil {
		return nil, err
	}
	defer closeMarket(m)
	idx := 0
	next := func(n int) []afl.Instance {
		insts := make([]afl.Instance, n)
		for i := range insts {
			insts[i] = pool.instance(idx)
			idx++
		}
		return insts
	}
	for idx < history {
		b := min(restartBatch, history-idx)
		if _, err := m.SubmitBatch(ctx, "builder", next(b)); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, committed, _, _ := m.Counts()
		if committed == history {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("restart build: %d of %d committed after 60 s", committed, history)
		}
		time.Sleep(time.Millisecond)
	}
	pr := &pristine{dir: dir, pool: pool, pending: map[int]int{}, ledger: m.Ledger(), committed: history}
	armed.Store(true)
	first := idx
	seqs, err := m.SubmitBatch(ctx, "builder", next(pending))
	if err != nil {
		return nil, err
	}
	if !m.Killed() {
		return nil, fmt.Errorf("restart build: market survived the bid_logged crash point")
	}
	for i, seq := range seqs {
		pr.pending[seq] = (first + i) % len(pool.bids)
	}
	// The ledger recovery must reach: the build's ledger plus the
	// reference payments of the pending submissions, folded in ascending
	// seq order as the market folds them.
	order := make([]int, 0, len(pr.pending))
	for seq := range pr.pending {
		order = append(order, seq)
	}
	sort.Ints(order)
	for _, seq := range order {
		for _, w := range pool.refs[pr.pending[seq]].Winners {
			pr.ledger[w.Bid.Client] += w.Payment
		}
	}
	return pr, nil
}

// restartSample is one timed restart.
type restartSample struct {
	open, done time.Duration
	cpu        time.Duration // process CPU from open to backlog committed
	kernel     time.Duration // the calibration kernel's CPU just before
	tail       int
	liveBytes  int64
}

// restartOnce copies the pristine directory, reopens it, waits for the
// backlog and checks the recovered state.
func restartOnce(ctx context.Context, pr *pristine, dir string, col *collector, cal *calibrator) (restartSample, error) {
	var s restartSample
	if err := copyDir(pr.dir, dir); err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)
	opts := marketOptions(dir)
	if col != nil {
		opts = append(opts, afl.WithObserver(col))
	}
	// Start from a collected heap, so the restart's own allocations, not
	// the copy's or the last sample's, decide when it collects.
	runtime.GC()
	s.kernel = cal.run()
	c := cpuTime()
	t := time.Now()
	m, err := afl.OpenMarket(ctx, opts...)
	if err != nil {
		return s, err
	}
	s.open = time.Since(t)
	recs := make(map[int]afl.MarketOutcome, len(pr.pending))
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for seq := range pr.pending {
		rec, err := m.Wait(wctx, seq)
		if err != nil {
			closeMarket(m)
			return s, fmt.Errorf("Wait(%d) after restart: %w", seq, err)
		}
		recs[seq] = rec
	}
	s.done = time.Since(t)
	s.cpu = cpuTime() - c

	// Output checks, outside the timed window.
	check := func() error {
		for seq, rec := range recs {
			if err := checkOutcome(rec, pr.pool.refs[pr.pending[seq]]); err != nil {
				return err
			}
		}
		_, committed, pending, _ := m.Counts()
		if committed != pr.committed+len(pr.pending) || pending != 0 {
			return fmt.Errorf("after restart %d committed and %d pending, want %d and 0",
				committed, pending, pr.committed+len(pr.pending))
		}
		got := m.Ledger()
		if len(got) != len(pr.ledger) {
			return fmt.Errorf("recovered ledger has %d clients, want %d", len(got), len(pr.ledger))
		}
		for c, v := range pr.ledger {
			if g, ok := got[c]; !ok || !sameBits(g, v) {
				return fmt.Errorf("recovered ledger pays client %d %v, want %v", c, g, v)
			}
		}
		return nil
	}
	checkErr := check()
	info := m.WALInfo()
	s.tail, s.liveBytes = info.TailReplayed, info.Bytes
	if err := closeMarket(m); err != nil {
		return s, err
	}
	if checkErr != nil {
		return s, &checkError{checkErr}
	}
	return s, nil
}

// checkError marks a failed output check (as opposed to an error that
// stops the run).
type checkError struct{ err error }

func (e *checkError) Error() string { return e.err.Error() }

type restartPhase struct {
	open, done     samples
	cpu, cal, kern samples // CPU ms, calibrated ms, kernel CPU ms
	tail           int
	liveBytes      int64
}

func measureRestart(ctx context.Context, pr *pristine, p params, rep *report, col *collector, cal *calibrator, minN int) (*restartPhase, error) {
	ph := &restartPhase{}
	start := time.Now()
	for i := 0; time.Since(start) < p.window() || i < minN; i++ {
		rep.attempted++
		s, err := restartOnce(ctx, pr, filepath.Join(p.dir, "restart-sample"), col, cal)
		if ce, ok := err.(*checkError); ok {
			rep.fail(fmt.Errorf("restart %d: %w", i, ce.err))
			continue
		}
		if err != nil {
			return nil, err
		}
		ph.open.add(s.open)
		ph.done.add(s.done)
		ph.cpu.add(s.cpu)
		ph.kern.add(s.kernel)
		ph.cal = append(ph.cal, calMs(s.cpu, s.kernel))
		ph.tail, ph.liveBytes = s.tail, s.liveBytes
	}
	return ph, nil
}

func runRestart(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	history, poolSize, minN := restartHistory, restartPool, minSamples(restartTailQ)
	if p.short {
		history, poolSize, minN = 1000+50, 16, 3
	}
	var pr *pristine
	var setups []time.Duration
	for r := 0; r < setupReps; r++ {
		if pr != nil {
			os.RemoveAll(pr.dir)
		}
		t := time.Now()
		pool, err := newSmallPool(ctx, p.seed, poolSize)
		if err != nil {
			return nil, err
		}
		if pr, err = buildPristine(ctx, filepath.Join(p.dir, fmt.Sprintf("pristine-%d", r)), pool, history, restartPending); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
	}
	if p.corrupt {
		for _, k := range pr.pending {
			corruptRef(&pr.pool.refs[k])
			break
		}
	}
	b, err := dirBytes(pr.dir)
	if err != nil {
		return nil, err
	}
	pr.bytes = b
	runtime.GOMAXPROCS(timedProcs)
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	meter := startProcMeter()
	base, err := measureRestart(ctx, pr, p, rep, nil, cal, minN)
	if err != nil {
		return nil, err
	}
	untraced := map[string]float64{}
	meter.stop(untraced)
	rep.e2e["setup_s"] = medianDuration(setups).Seconds()
	rep.e2e["heap_mb"] = liveHeapMB()
	rep.e2e["cal_ms_per_op"] = base.cal.p50()
	rep.setCPU(base.cpu.p50(), base.kern.p50())
	rep.setWall(base.open, base.done, restartTailQ)
	rep.detail["tail_quantile"] = restartTailQ
	rep.detail["samples"] = len(base.done)
	rep.detail["history"] = history
	rep.detail["pending"] = restartPending
	rep.detail["wal_mb"] = float64(pr.bytes) / 1e6
	rep.detail["proc"] = untraced
	if !p.trace || rep.checkErr != nil {
		return rep, nil
	}

	col := newCollector()
	l := rep.layer
	meter = startProcMeter()
	tr, err := measureRestart(ctx, pr, p, rep, col, cal, minN)
	if err != nil {
		return nil, err
	}
	meter.stop(l)
	col.layers(l)
	l["marketd.open_rest_ms_p50"] = tr.done.p50() - l["marketd.recover_ms_p50"]
	l["wal.tail_records"] = float64(tr.tail)
	l["wal.live_mb"] = float64(tr.liveBytes) / 1e6
	l["wal.dir_mb"] = float64(pr.bytes) / 1e6
	l["trace.overhead_ms"] = tr.done.p50() - base.done.p50()
	rep.detail["traced"] = map[string]any{
		"restart_ms_p50": tr.done.p50(),
		"open_ms_p50":    tr.open.p50(),
	}
	return rep, nil
}
