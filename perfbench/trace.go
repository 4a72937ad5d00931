package main

import (
	"sync"
	"time"

	"github.com/fedauction/afl"
	"github.com/fedauction/afl/internal/obs"
)

// collector is the traced run's Observer: it folds the program's phase
// events into per-layer samples and counts. The market's own event kinds
// (group commit, checkpoint, recovery, admission) are not re-exported by
// the facade, so they are named through internal/obs. It is attached only in
// traced phases; untraced phases run with no observer at all.
type collector struct {
	mu sync.Mutex

	queuedAt   map[int]time.Time // batch: seq -> EvAuctionQueued time
	dequeued   map[int]bool      // batch: seqs dequeued before their queued event
	queueWait  samples
	depthMax   float64
	solve      samples // core: EvAuctionDone.Dur (sweep + pricing)
	pricing    samples // core: EvPricingDone.Dur
	wdp        samples // core: EvWDPSolved.Dur
	wdpSolves  int
	auctions   int
	probes     int // core: Σ EvWinnerPriced.Round
	priced     int
	fsync      samples // wal: EvGroupCommit.Dur
	fsyncRecs  int
	checkpoint samples // wal: EvWALCheckpoint.Dur
	rotated    int
	rateLim    int
	admission  int
	recover    samples // marketd: EvMarketRecovered.Dur
	requeued   int
}

func newCollector() *collector {
	return &collector{queuedAt: make(map[int]time.Time), dequeued: make(map[int]bool)}
}

// sweeps returns each auction's span minus its pricing stage, pairing
// the two streams in order (valid for auctions solved one at a time).
func (c *collector) sweeps() samples {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s samples
	for i := range c.solve {
		if i < len(c.pricing) {
			s = append(s, c.solve[i]-c.pricing[i])
		}
	}
	return s
}

// solveCount is the number of auction spans recorded so far.
func (c *collector) solveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.solve)
}

// solveAt returns the i-th auction span.
func (c *collector) solveAt(i int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.solve[i]
}

// Observe implements afl.Observer.
func (c *collector) Observe(e afl.Event) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Kind {
	case obs.EvAuctionQueued:
		if e.Value > c.depthMax {
			c.depthMax = e.Value
		}
		if c.dequeued[e.Bid] {
			// The queue emits after the send, so a worker can pick the
			// instance up first: it never waited.
			c.queueWait.add(0)
			delete(c.dequeued, e.Bid)
			break
		}
		c.queuedAt[e.Bid] = now
	case obs.EvAuctionDequeued:
		if t, ok := c.queuedAt[e.Bid]; ok {
			c.queueWait.add(now.Sub(t))
			delete(c.queuedAt, e.Bid)
		} else {
			c.dequeued[e.Bid] = true
		}
	case obs.EvAuctionDone:
		c.solve.add(e.Dur)
		c.auctions++
	case obs.EvPricingDone:
		c.pricing.add(e.Dur)
	case obs.EvWDPSolved:
		c.wdp.add(e.Dur)
		c.wdpSolves++
	case obs.EvWinnerPriced:
		c.probes += e.Round
		c.priced++
	case obs.EvGroupCommit:
		c.fsync.add(e.Dur)
		c.fsyncRecs += int(e.Value)
	case obs.EvWALCheckpoint:
		if e.OK {
			c.checkpoint.add(e.Dur)
		}
	case obs.EvWALSegmentRotated:
		c.rotated++
	case obs.EvRateLimited:
		c.rateLim++
	case obs.EvAdmissionRejected:
		c.admission++
	case obs.EvMarketRecovered:
		c.recover.add(e.Dur)
		c.requeued += e.Round
	}
}

// layers writes the collector's per-layer metrics into out.
func (c *collector) layers(out map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out["batch.queue_wait_ms_p50"] = c.queueWait.p50()
	out["batch.queue_wait_ms_p99"] = c.queueWait.pct(0.99)
	out["batch.queue_depth_max"] = c.depthMax
	out["core.solve_ms_p50"] = c.solve.p50()
	out["core.solve_ms_p99"] = c.solve.pct(0.99)
	out["core.pricing_ms_p50"] = c.pricing.p50()
	out["core.pricing_ms_p90"] = c.pricing.pct(0.90)
	out["core.wdp_ms_p50"] = c.wdp.p50()
	out["core.wdp_solves_per_auction"] = ratio(float64(c.wdpSolves), float64(c.auctions))
	out["core.probes_per_winner"] = ratio(float64(c.probes), float64(c.priced))
	out["wal.fsync_ms_p50"] = c.fsync.p50()
	out["wal.fsync_ms_p99"] = c.fsync.pct(0.99)
	out["wal.records_per_fsync"] = ratio(float64(c.fsyncRecs), float64(len(c.fsync)))
	out["wal.checkpoints"] = float64(len(c.checkpoint))
	out["wal.checkpoint_ms_p50"] = c.checkpoint.p50()
	out["wal.checkpoint_ms_max"] = c.checkpoint.max()
	out["wal.segments_rotated"] = float64(c.rotated)
	out["marketd.rate_limited"] = float64(c.rateLim)
	out["marketd.admission_rejected"] = float64(c.admission)
	out["marketd.recover_ms_p50"] = c.recover.p50()
	out["marketd.pending_requeued"] = ratio(float64(c.requeued), float64(len(c.recover)))
}
