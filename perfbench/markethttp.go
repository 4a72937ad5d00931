package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fedauction/afl"
	"github.com/fedauction/afl/internal/marketd"
)

// market-http: an open loop of small-auction submissions over two
// keep-alive connections to an in-process durable market behind
// afl.MarketHandler. Ack latency is timed from each request's due time
// to its HTTP 200; commit latency from the due time to Market.Wait.
const (
	httpRate  = 250.0 // submissions per second, about half the closed-loop capacity
	httpConns = 2
	httpPool  = 256 // distinct instances (and rate-limit keys), cycled
	// The gated tail is p90 (250 samples beyond it): the p99 moves by half
	// its value between runs on a shared host.
	httpTailQ = 0.90
	calEvery  = 250 * time.Millisecond // calibration kernel period in the window
)

// marketOptions are the README quickstart options of a durable market.
func marketOptions(dir string) []afl.Option {
	return []afl.Option{
		afl.WithDurability(dir),
		afl.WithGroupCommit(0),
		afl.WithCheckpointEvery(1000),
		afl.WithSegmentBytes(8 << 20),
		afl.WithRetainOutcomes(1000),
		afl.WithRateLimit(5, 10),
		afl.WithMaxPending(64),
	}
}

// httpSUT is one market-http system under test: a fresh durable market,
// its HTTP server on a loopback listener, and a two-connection client.
type httpSUT struct {
	dir    string
	m      *afl.Market
	srv    *http.Server
	url    string
	client *http.Client
	tr     *http.Transport
	serve  []atomic.Int64 // traced: ServeHTTP nanoseconds per request id
	served chan struct{}
}

func openHTTPSUT(ctx context.Context, dir string, col *collector, requests int) (*httpSUT, error) {
	opts := marketOptions(dir)
	if col != nil {
		opts = append(opts, afl.WithObserver(col))
	}
	m, err := afl.OpenMarket(ctx, opts...)
	if err != nil {
		return nil, err
	}
	s := &httpSUT{dir: dir, m: m, served: make(chan struct{})}
	h := afl.MarketHandler(m)
	if col != nil {
		// Timing middleware: ServeHTTP time per request, keyed by the
		// request id the generator sends in a header.
		s.serve = make([]atomic.Int64, requests)
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t := time.Now()
			inner.ServeHTTP(w, r)
			if id, err := strconv.Atoi(r.Header.Get("X-Bench-Req")); err == nil && id >= 0 && id < len(s.serve) {
				s.serve[id].Store(int64(time.Since(t)))
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeMarket(m)
		return nil, err
	}
	s.srv = &http.Server{Handler: h}
	go func() {
		s.srv.Serve(ln)
		close(s.served)
	}()
	s.url = "http://" + ln.Addr().String()
	s.tr = &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     httpConns,
		MaxIdleConnsPerHost: httpConns,
		DisableCompression:  true,
	}
	s.client = &http.Client{Transport: s.tr}
	// Open both keep-alive connections before the clock starts.
	var wg sync.WaitGroup
	errs := make([]error, httpConns)
	for c := 0; c < httpConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := s.client.Get(s.url + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close stops the server, then the market, each under a deadline.
func (s *httpSUT) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Client side first: Shutdown would otherwise wait out the keep-alive
	// connections.
	s.tr.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if err == nil {
		<-s.served
	}
	if cerr := closeMarket(s.m); err == nil {
		err = cerr
	}
	return err
}

// closeMarket closes m, failing instead of hanging when Close does not
// return within its deadline (Close has no bound while a solve is in
// flight).
func closeMarket(m *afl.Market) error {
	done := make(chan error, 1)
	go func() { done <- m.Close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		return fmt.Errorf("Market.Close did not return within 20 s")
	}
}

// httpPhase is what one measured window of market-http recorded.
type httpPhase struct {
	ack, commit, postAck    samples
	cpuPerOp                float64 // process CPU ms per submission
	kernel                  samples // calibration kernel CPU, through the window
	sendWait, serve, client samples
	late                    samples
	refused                 int
	committed               int
	walBefore, walAfter     marketd.WALInfo
	dirBytes                int64
}

// measureHTTP runs the open loop for the window and checks every
// committed outcome against its reference.
func measureHTTP(ctx context.Context, s *httpSUT, pool *smallPool, p params, rep *report, layer map[string]float64, cal *calibrator) (*httpPhase, error) {
	n := int(httpRate * p.seconds)
	interval := time.Duration(float64(time.Second) / httpRate)
	ph := &httpPhase{}
	due := make([]time.Duration, n)
	send := make([]time.Duration, n)
	ackAt := make([]time.Duration, n)
	commitAt := make([]time.Duration, n)
	seqs := make([]int, n)
	status := make([]int, n)
	recs := make([]afl.MarketOutcome, n)
	waitErr := make([]error, n)
	lateNs := make([]time.Duration, 0, n)
	var lateMu sync.Mutex

	ph.walBefore = s.m.WALInfo()
	_, committed0, _, _ := s.m.Counts()
	var meter procMeter
	if layer != nil {
		meter = startProcMeter()
	}
	wctx, cancel := context.WithTimeout(ctx, p.window()+60*time.Second)
	defer cancel()
	var waiters sync.WaitGroup
	t0 := time.Now().Add(5 * time.Millisecond)
	cpu0 := cpuTime()
	// The calibration kernel runs every calEvery through the window, so it
	// samples the host's speed while the market runs; its CPU is taken out
	// of the market's.
	var kernelCPU time.Duration
	stopCal, calDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(calDone)
		if cal == nil {
			return
		}
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			k := cal.run()
			ph.kernel.add(k)
			kernelCPU += k
			select {
			case <-stopCal:
				return
			case <-tick.C:
			}
		}
	}()
	var gens sync.WaitGroup
	for g := 0; g < httpConns; g++ {
		gens.Add(1)
		go func(g int) {
			defer gens.Done()
			var late []time.Duration
			for i := g; i < n; i += httpConns {
				due[i] = time.Duration(i) * interval
				if wait := due[i] - time.Since(t0); wait > 0 {
					time.Sleep(wait)
					late = append(late, time.Since(t0)-due[i])
				}
				send[i] = time.Since(t0)
				req, err := http.NewRequest("POST", s.url+"/v1/auctions", bytes.NewReader(pool.bodies[i%len(pool.bodies)]))
				if err != nil {
					status[i] = -1
					continue
				}
				if s.serve != nil {
					req.Header.Set("X-Bench-Req", strconv.Itoa(i))
				}
				resp, err := s.client.Do(req)
				if err != nil {
					status[i] = -1
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				ackAt[i] = time.Since(t0)
				status[i] = resp.StatusCode
				if err != nil || resp.StatusCode != http.StatusOK {
					continue
				}
				var ack struct {
					Seq *int `json:"seq"`
				}
				if json.Unmarshal(body, &ack) != nil || ack.Seq == nil {
					status[i] = -2
					continue
				}
				seqs[i] = *ack.Seq
				waiters.Add(1)
				go func(i int) {
					defer waiters.Done()
					recs[i], waitErr[i] = s.m.Wait(wctx, seqs[i])
					commitAt[i] = time.Since(t0)
				}(i)
			}
			lateMu.Lock()
			lateNs = append(lateNs, late...)
			lateMu.Unlock()
		}(g)
	}
	gens.Wait()
	// Wait on every issued seq before anything closes the market.
	waiters.Wait()
	close(stopCal)
	<-calDone
	ph.cpuPerOp = ms(cpuTime()-cpu0-kernelCPU) / float64(n)
	if layer != nil {
		meter.stop(layer)
	}
	ph.walAfter = s.m.WALInfo()
	_, committed1, _, _ := s.m.Counts()
	ph.committed = committed1 - committed0
	b, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	ph.dirBytes = b

	// Output checks, outside the timed window.
	rep.attempted += n
	for i := 0; i < n; i++ {
		switch {
		case status[i] == http.StatusTooManyRequests || status[i] == http.StatusServiceUnavailable:
			ph.refused++
			rep.fail(fmt.Errorf("request %d refused with HTTP %d", i, status[i]))
			continue
		case status[i] != http.StatusOK:
			rep.fail(fmt.Errorf("request %d failed (status %d)", i, status[i]))
			continue
		case waitErr[i] != nil:
			rep.fail(fmt.Errorf("request %d: Wait(%d): %v", i, seqs[i], waitErr[i]))
			continue
		}
		if err := checkOutcome(recs[i], pool.refs[i%len(pool.refs)]); err != nil {
			rep.fail(fmt.Errorf("request %d: %w", i, err))
			continue
		}
		ph.ack.add(ackAt[i] - due[i])
		ph.commit.add(commitAt[i] - due[i])
		ph.postAck.add(commitAt[i] - ackAt[i])
		ph.sendWait.add(send[i] - due[i])
		if s.serve != nil {
			sv := time.Duration(s.serve[i].Load())
			ph.serve.add(sv)
			ph.client.add(ackAt[i] - send[i] - sv)
		}
	}
	for _, d := range lateNs {
		ph.late.add(d)
	}
	if l := ph.late.pct(0.99); l > lateBoundMs {
		rep.fail(fmt.Errorf("generator p99 lateness %.3f ms exceeds the %.1f ms bound: the generator was starved", l, lateBoundMs))
	}
	return ph, nil
}

func runMarketHTTP(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	poolSize := httpPool
	if p.short {
		poolSize = 16
	}
	var pool *smallPool
	var sut *httpSUT
	var setups []time.Duration
	for r := 0; r < setupReps; r++ {
		if sut != nil {
			if err := sut.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if pool, err = newSmallPool(ctx, p.seed, poolSize); err != nil {
			return nil, err
		}
		if sut, err = openHTTPSUT(ctx, filepath.Join(p.dir, fmt.Sprintf("http-%d", r)), nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
	}
	if p.corrupt {
		corruptRef(&pool.refs[0])
	}
	runtime.GOMAXPROCS(timedProcs)
	cal, err := newCalibrator()
	if err != nil {
		sut.close()
		return nil, err
	}
	defer cal.close()
	base, err := measureHTTP(ctx, sut, pool, p, rep, nil, cal)
	if err != nil {
		sut.close()
		return nil, err
	}
	heap := liveHeapMB()
	if err := sut.close(); err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = medianDuration(setups).Seconds()
	rep.e2e["heap_mb"] = heap
	// The market's CPU is spread over the window, so it is scaled by the
	// kernel's mean over the window, not by one sample's.
	rep.e2e["cal_ms_per_op"] = base.cpuPerOp * calRefMs / base.kernel.mean()
	rep.setCPU(base.cpuPerOp, base.kernel.mean())
	rep.setWall(base.ack, base.commit, httpTailQ)
	rep.detail["tail_quantile"] = httpTailQ
	rep.detail["samples"] = len(base.ack)
	rep.detail["rate_per_s"] = httpRate
	rep.detail["gen_late_ms_p99"] = base.late.pct(0.99)
	rep.detail["late_bound_ms"] = lateBoundMs
	if !p.trace || rep.checkErr != nil {
		return rep, nil
	}
	// The untraced p99s: too noisy between runs to gate on, reported here.
	rep.layer["marketd.ack_ms_p99"] = base.ack.pct(0.99)
	rep.layer["marketd.commit_ms_p99"] = base.commit.pct(0.99)

	// Traced phase: a fresh market with the observer and the timing
	// middleware attached, same inputs, same window.
	col := newCollector()
	n := int(httpRate * p.seconds)
	tsut, err := openHTTPSUT(ctx, filepath.Join(p.dir, "http-traced"), col, n)
	if err != nil {
		return nil, err
	}
	l := rep.layer
	tr, err := measureHTTP(ctx, tsut, pool, p, rep, l, nil)
	if cerr := tsut.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	col.layers(l)
	l["marketd.http_serve_ms_p50"] = tr.serve.p50()
	l["marketd.http_serve_ms_p99"] = tr.serve.pct(0.99)
	l["marketd.http_client_ms_p50"] = tr.client.p50()
	l["marketd.refused"] = float64(tr.refused)
	l["marketd.post_ack_ms_p50"] = tr.postAck.p50()
	l["marketd.post_ack_ms_p99"] = tr.postAck.pct(0.99)
	l["marketd.commit_rest_ms_p50"] = tr.postAck.p50() - l["batch.queue_wait_ms_p50"] - l["core.solve_ms_p50"]
	l["wal.fsyncs_per_auction"] = ratio(float64(tr.walAfter.Syncs-tr.walBefore.Syncs), float64(tr.committed))
	l["wal.records_per_auction"] = ratio(float64(tr.walAfter.Records-tr.walBefore.Records), float64(tr.committed))
	l["wal.live_mb"] = float64(tr.walAfter.Bytes) / 1e6
	l["wal.dir_mb"] = float64(tr.dirBytes) / 1e6
	l["gen.late_ms_p99"] = tr.late.pct(0.99)
	l["trace.overhead_ms"] = tr.commit.p50() - base.commit.p50()
	l["recon.ack_rest_ms"] = tr.ack.p50() - (tr.sendWait.p50() + tr.serve.p50() + tr.client.p50())
	rep.detail["traced"] = map[string]any{
		"ack_ms_p50":           tr.ack.p50(),
		"commit_ms_p50":        tr.commit.p50(),
		"send_wait_ms_p50":     tr.sendWait.p50(),
		"ack_overhead_ms":      tr.ack.p50() - base.ack.p50(),
		"ack_sum_of_stages_ms": tr.sendWait.p50() + tr.serve.p50() + tr.client.p50(),
		"post_ack_sum_ms":      l["batch.queue_wait_ms_p50"] + l["core.solve_ms_p50"] + l["marketd.commit_rest_ms_p50"],
	}
	return rep, nil
}
