package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; all methods are safe for concurrent use and allocation
// free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the counter to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can move both ways (queue depths,
// payment volume, last-seen cost). The zero value is ready to use; all
// methods are safe for concurrent use and allocation free.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Add atomically adds x via compare-and-swap.
func (g *Gauge) Add(x float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Buckets are defined by
// ascending upper bounds; an observation lands in the first bucket whose
// bound is ≥ the value, or in the implicit +Inf overflow bucket. Observe
// is a binary search plus two atomic adds — no allocation, no locking —
// which is what makes it safe on the solver's hot path.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    Gauge
	count  atomic.Int64
}

// DefBuckets are the default latency bounds in seconds: 10µs to ~10s in
// half-decade steps, matching the spread between a single WDP solve and a
// full large-population sweep.
var DefBuckets = []float64{
	1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// Nil or empty bounds select DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Buckets returns a snapshot of cumulative bucket counts aligned with
// Bounds(); the final entry is the total (+Inf bucket).
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Bounds returns the histogram's upper bounds (shared, read-only).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Registry is a named collection of metrics with get-or-create semantics
// and a deterministic text exposition. Metric creation takes a mutex;
// updating a metric obtained from the registry is lock free, so
// instrumented code should hold on to the returned pointers.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = new(Counter)
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds (nil selects DefBuckets) on first use. Later calls ignore
// bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// WriteText writes a deterministic (name-sorted) expvar-style snapshot:
//
//	name value
//	hist_count N
//	hist_sum S
//	hist_bucket{le="0.001"} N
//	...
//	hist_bucket{le="+Inf"} N
//
// Counter and gauge lines carry the value verbatim; histogram lines are
// cumulative, Prometheus-style.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	type hsnap struct {
		name string
		h    *Histogram
	}
	lines := make([]string, 0, len(r.counts)+len(r.gauges))
	for name, c := range r.counts {
		lines = append(lines, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s %g", name, g.Value()))
	}
	hists := make([]hsnap, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, hsnap{name, h})
	}
	r.mu.Unlock()

	for _, hs := range hists {
		buckets := hs.h.Buckets()
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s_count %d\n", hs.name, hs.h.Count())
		fmt.Fprintf(&sb, "%s_sum %g\n", hs.name, hs.h.Sum())
		for i, b := range hs.h.Bounds() {
			fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", hs.name, formatBound(b), buckets[i])
		}
		fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d", hs.name, buckets[len(buckets)-1])
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// String returns the WriteText snapshot.
func (r *Registry) String() string {
	var sb strings.Builder
	_ = r.WriteText(&sb)
	return sb.String()
}

// ServeHTTP exposes the text snapshot over HTTP, so a serving process can
// mount the registry next to net/http/pprof.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = r.WriteText(w)
}

// Metrics is an Observer that folds phase-trace events into a Registry.
// Counter updates are order-independent, so the resulting snapshot is
// deterministic for a deterministic event multiset even when events
// arrive from concurrent goroutines.
type Metrics struct {
	reg *Registry

	auctions, auctionsInfeasible *Counter
	wdps, wdpsInfeasible         *Counter
	winners                      *Counter
	repairs, repairsFailed       *Counter
	retries, stragglers, drops   *Counter
	rounds, roundsUnderCovered   *Counter
	faultDrop, faultDelay        *Counter
	faultDup, faultCrash         *Counter
	pricings, pricingsCanceled   *Counter
	winnersPriced, pricingProbes *Counter
	batches, batchesCanceled     *Counter
	batchAuctions                *Counter
	recoveries, replayed         *Counter
	resubmitted                  *Counter
	walTornTails, walDupRecords  *Counter
	rateLimited                  *Counter
	admissionRejected            *Counter
	certificates                 *Counter
	walCheckpoints               *Counter
	walCheckpointsFailed         *Counter
	walSegmentsPruned            *Counter
	walRotations                 *Counter
	groupCommits                 *Counter
	groupCommitRecords           *Counter
	payments, cost               *Gauge
	batchQueueDepth              *Gauge
	wdpSeconds, auctionSeconds   *Histogram
	repairSeconds                *Histogram
	pricingSeconds               *Histogram
	winnerPriceSeconds           *Histogram
	batchSeconds                 *Histogram
	recoverySeconds              *Histogram
	certRatio                    *Histogram
	checkpointSeconds            *Histogram
	groupCommitBatch             *Histogram
	groupCommitSeconds           *Histogram
}

// RatioBuckets are the bounds of the certified-approximation-ratio
// histogram: the dial positions of the quality-vs-speed frontier
// (1 = proven optimal, 1.05 and 1.2 = the frontier's benchmark gates)
// rather than latency decades.
var RatioBuckets = []float64{1, 1.01, 1.02, 1.05, 1.1, 1.2, 1.5, 2}

// BatchBuckets are the bounds of the group-commit batch-size histogram:
// how many records each coalesced fsync made durable, from a lone
// committer (no coalescing) up through saturated producers.
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// NewMetrics returns a Metrics observer writing into reg (nil creates a
// fresh registry, retrievable via Registry).
func NewMetrics(reg *Registry) *Metrics {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Metrics{
		reg:                  reg,
		auctions:             reg.Counter("afl_auctions_total"),
		auctionsInfeasible:   reg.Counter("afl_auctions_infeasible_total"),
		wdps:                 reg.Counter("afl_wdp_solves_total"),
		wdpsInfeasible:       reg.Counter("afl_wdp_infeasible_total"),
		winners:              reg.Counter("afl_winners_total"),
		repairs:              reg.Counter("afl_repairs_total"),
		repairsFailed:        reg.Counter("afl_repairs_failed_total"),
		retries:              reg.Counter("afl_retries_total"),
		stragglers:           reg.Counter("afl_stragglers_total"),
		drops:                reg.Counter("afl_dropouts_total"),
		rounds:               reg.Counter("afl_rounds_total"),
		roundsUnderCovered:   reg.Counter("afl_rounds_under_covered_total"),
		faultDrop:            reg.Counter("afl_faults_drop_total"),
		faultDelay:           reg.Counter("afl_faults_delay_total"),
		faultDup:             reg.Counter("afl_faults_dup_total"),
		faultCrash:           reg.Counter("afl_faults_crash_total"),
		pricings:             reg.Counter("afl_pricings_total"),
		pricingsCanceled:     reg.Counter("afl_pricings_canceled_total"),
		winnersPriced:        reg.Counter("afl_winners_priced_total"),
		pricingProbes:        reg.Counter("afl_pricing_probes_total"),
		batches:              reg.Counter("afl_batches_total"),
		batchesCanceled:      reg.Counter("afl_batches_canceled_total"),
		batchAuctions:        reg.Counter("afl_batch_auctions_total"),
		recoveries:           reg.Counter("afl_market_recoveries_total"),
		replayed:             reg.Counter("afl_market_replayed_outcomes_total"),
		resubmitted:          reg.Counter("afl_market_resubmitted_total"),
		walTornTails:         reg.Counter("afl_wal_torn_tails_total"),
		walDupRecords:        reg.Counter("afl_wal_dup_records_total"),
		rateLimited:          reg.Counter("afl_rate_limited_total"),
		admissionRejected:    reg.Counter("afl_admission_rejected_total"),
		certificates:         reg.Counter("afl_certificates_total"),
		walCheckpoints:       reg.Counter("afl_wal_checkpoints_total"),
		walCheckpointsFailed: reg.Counter("afl_wal_checkpoints_failed_total"),
		walSegmentsPruned:    reg.Counter("afl_wal_segments_pruned_total"),
		walRotations:         reg.Counter("afl_wal_rotations_total"),
		groupCommits:         reg.Counter("afl_group_commits_total"),
		groupCommitRecords:   reg.Counter("afl_group_commit_records_total"),
		payments:             reg.Gauge("afl_payment_volume"),
		cost:                 reg.Gauge("afl_last_auction_cost"),
		batchQueueDepth:      reg.Gauge("afl_batch_queue_depth"),
		wdpSeconds:           reg.Histogram("afl_wdp_solve_seconds", nil),
		auctionSeconds:       reg.Histogram("afl_auction_seconds", nil),
		repairSeconds:        reg.Histogram("afl_repair_seconds", nil),
		pricingSeconds:       reg.Histogram("afl_pricing_seconds", nil),
		winnerPriceSeconds:   reg.Histogram("afl_winner_price_seconds", nil),
		batchSeconds:         reg.Histogram("afl_batch_seconds", nil),
		recoverySeconds:      reg.Histogram("afl_market_recovery_seconds", nil),
		certRatio:            reg.Histogram("afl_certificate_ratio", RatioBuckets),
		checkpointSeconds:    reg.Histogram("afl_wal_checkpoint_seconds", nil),
		groupCommitBatch:     reg.Histogram("afl_group_commit_batch", BatchBuckets),
		groupCommitSeconds:   reg.Histogram("afl_group_commit_seconds", nil),
	}
}

// Registry returns the backing registry.
func (m *Metrics) Registry() *Registry { return m.reg }

// Observe implements Observer.
func (m *Metrics) Observe(e Event) {
	switch e.Kind {
	case EvAuctionStarted:
		m.auctions.Inc()
	case EvWDPSolved:
		m.wdps.Inc()
		if !e.OK {
			m.wdpsInfeasible.Inc()
		}
		if e.Dur > 0 {
			m.wdpSeconds.ObserveDuration(e.Dur)
		}
	case EvWinnerAccepted:
		m.winners.Inc()
	case EvPaymentComputed:
		m.payments.Add(e.Value)
	case EvAuctionDone:
		if !e.OK {
			m.auctionsInfeasible.Inc()
		}
		m.cost.Set(e.Value)
		if e.Dur > 0 {
			m.auctionSeconds.ObserveDuration(e.Dur)
		}
	case EvRepairTriggered:
		m.repairs.Inc()
	case EvRepairDone:
		if !e.OK {
			m.repairsFailed.Inc()
		}
		if e.Dur > 0 {
			m.repairSeconds.ObserveDuration(e.Dur)
		}
	case EvRetryFired:
		m.retries.Inc()
	case EvStragglerDetected:
		m.stragglers.Inc()
	case EvDropDetected:
		m.drops.Inc()
	case EvRoundDone:
		m.rounds.Inc()
		if !e.OK {
			m.roundsUnderCovered.Inc()
		}
	case EvPricingStarted:
		m.pricings.Inc()
	case EvWinnerPriced:
		m.winnersPriced.Inc()
		m.pricingProbes.Add(int64(e.Round))
		if e.Dur > 0 {
			m.winnerPriceSeconds.ObserveDuration(e.Dur)
		}
	case EvPricingDone:
		if !e.OK {
			m.pricingsCanceled.Inc()
		}
		if e.Dur > 0 {
			m.pricingSeconds.ObserveDuration(e.Dur)
		}
	case EvBatchStarted:
		m.batches.Inc()
	case EvAuctionQueued:
		m.batchQueueDepth.Set(e.Value)
	case EvAuctionDequeued:
		m.batchAuctions.Inc()
		m.batchQueueDepth.Set(e.Value)
	case EvBatchDone:
		if !e.OK {
			m.batchesCanceled.Inc()
		}
		if e.Dur > 0 {
			m.batchSeconds.ObserveDuration(e.Dur)
		}
	case EvMarketRecovered:
		m.recoveries.Inc()
		m.replayed.Add(int64(e.Value))
		m.resubmitted.Add(int64(e.Round))
		if e.Dur > 0 {
			m.recoverySeconds.ObserveDuration(e.Dur)
		}
	case EvWALFault:
		switch e.Label {
		case "torn_tail":
			m.walTornTails.Inc()
		case "dup_record":
			m.walDupRecords.Inc()
		}
	case EvRateLimited:
		m.rateLimited.Inc()
	case EvAdmissionRejected:
		m.admissionRejected.Inc()
	case EvCertificateComputed:
		m.certificates.Inc()
		if e.OK && !math.IsInf(e.Value, 1) {
			m.certRatio.Observe(e.Value)
		}
	case EvWALCheckpoint:
		m.walCheckpoints.Inc()
		if !e.OK {
			m.walCheckpointsFailed.Inc()
		}
		m.walSegmentsPruned.Add(int64(e.Round))
		if e.Dur > 0 {
			m.checkpointSeconds.ObserveDuration(e.Dur)
		}
	case EvWALSegmentRotated:
		m.walRotations.Inc()
	case EvGroupCommit:
		m.groupCommits.Inc()
		m.groupCommitRecords.Add(int64(e.Value))
		m.groupCommitBatch.Observe(e.Value)
		if e.Dur > 0 {
			m.groupCommitSeconds.ObserveDuration(e.Dur)
		}
	case EvFaultInjected:
		switch e.Label {
		case "drop":
			m.faultDrop.Inc()
		case "delay":
			m.faultDelay.Inc()
		case "dup":
			m.faultDup.Inc()
		case "crash":
			m.faultCrash.Inc()
		}
	}
}
