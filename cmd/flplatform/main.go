// Command flplatform runs the networked auction marketplace over real TCP
// sockets in five modes:
//
//	flplatform -mode demo                  # server + agents in one process
//	flplatform -mode server -addr :7001 -agents 6
//	flplatform -mode client -addr host:7001 -id 3
//	flplatform -mode chaos -seed 42 -drop 0.1 -crash 2:3
//	flplatform -mode marketd -addr :7080 -wal /var/lib/afl -rate 5 -burst 10
//
// The server announces the FL job, collects sealed bids, runs A_FL,
// drives the training rounds over the winning schedule, and settles
// payments; each client process holds a private synthetic shard and bids
// from its own resource profile. Chaos mode replays one deterministic
// fault schedule on a virtual clock and checks the session invariants.
// Marketd mode is the market daemon: a long-lived HTTP/JSON market over
// the cross-auction batch service (-workers, -queue) whose submissions,
// outcomes and payments are logged to -wal and replayed bit-identically
// on restart; without -wal it is a volatile demo. Per-client token-bucket
// rate limiting (-rate/-burst) and queue-depth admission control
// (-maxpending) guard the edge. Concurrent commits always share fsyncs.
// The fast-path knobs shape the WAL: -checkpoint-every and
// -segment-bytes bound restart replay to the post-checkpoint tail, and
// -retain bounds the servable outcome history (pruned reads answer 410)
// and, with checkpoints, how much of it the WAL keeps. At startup the
// daemon prints the WAL size, segment count, last checkpoint and tail
// replayed, warning when the tail exceeds -tail-warn; the same figures
// are served live under GET /v1/stats.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the -pprof server
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/fedauction/afl"
	"github.com/fedauction/afl/internal/chaos"
)

// Session instrumentation shared by the server-side modes; built once in
// main from the observability flags.
var (
	traceRec  *afl.Trace
	metRec    *afl.Metrics
	observer  afl.Observer
	wantTrace bool
	wantMet   bool
)

func main() {
	mode := flag.String("mode", "demo", "demo, server, client, chaos, or marketd")
	addr := flag.String("addr", "127.0.0.1:7001", "listen/dial address")
	agents := flag.Int("agents", 6, "number of agents (demo/server/chaos)")
	id := flag.Int("id", 0, "client id (client mode)")
	seed := flag.Int64("seed", 5, "RNG seed")
	maxT := flag.Int("T", 8, "maximum global iterations")
	k := flag.Int("K", 2, "participants per iteration")
	dim := flag.Int("dim", 6, "model dimension")
	retries := flag.Int("retries", 1, "attempts per expected client update (server/demo/chaos)")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "initial retry backoff, doubled per attempt")
	drop := flag.Float64("drop", 0, "chaos: per-message drop probability")
	delay := flag.Float64("delay", 0, "chaos: per-message delay probability")
	dup := flag.Float64("dup", 0, "chaos: per-message duplication probability")
	crash := flag.String("crash", "", "chaos: comma-separated client:round crash points, e.g. 2:3,5:1")
	workers := flag.Int("workers", 0, "marketd: service worker pool width (0 = GOMAXPROCS)")
	queueN := flag.Int("queue", 0, "marketd: submission queue bound (0 = twice the workers)")
	walDir := flag.String("wal", "", "marketd: durability directory for the event log (empty = volatile)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "marketd: checkpoint+prune the WAL every n committed auctions (0 = never)")
	segmentBytes := flag.Int64("segment-bytes", 0, "marketd: rotate the WAL segment past this size (0 = never)")
	retain := flag.Int("retain", 0, "marketd: serve at most n folded outcomes, read back from the WAL; older reads return 410 (0 = all, and a checkpointed WAL keeps all of history)")
	tailWarn := flag.Int("tail-warn", 10000, "marketd: warn at startup when recovery replayed more than n tail records")
	rate := flag.Float64("rate", 0, "marketd: per-client sustained submissions/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "marketd: per-client burst size (0 = ceil(rate))")
	maxPending := flag.Int("maxpending", 0, "marketd: reject submissions past this pending depth (0 = unbounded)")
	trace := flag.Bool("trace", false, "print the session's phase trace to stderr at exit")
	metrics := flag.Bool("metrics", false, "print the metrics exposition to stderr at exit")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof/ and /metrics on this address (e.g. :6060)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" || *memprofile != "" {
		stop, err := afl.StartProfiles(*cpuprofile, *memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "profiles:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "flplatform: profiles:", err)
			}
		}()
	}
	wantTrace, wantMet = *trace, *metrics
	setupObserver(*pprofAddr)

	retry := afl.RetryPolicy{Attempts: *retries, Backoff: *backoff}
	switch *mode {
	case "demo":
		runDemo(*agents, *seed, *maxT, *k, *dim, retry)
	case "server":
		runServer(*addr, *agents, *seed, *maxT, *k, *dim, retry)
	case "client":
		runClient(*addr, *id, *seed, *maxT, *dim)
	case "chaos":
		runChaos(*agents, *seed, *maxT, *k, *dim, retry, *drop, *delay, *dup, *crash)
	case "marketd":
		runMarketd(marketdFlags{
			addr: *addr, walDir: *walDir, workers: *workers, queue: *queueN,
			checkpointEvery: *checkpointEvery, segmentBytes: *segmentBytes, retain: *retain,
			tailWarn: *tailWarn, rate: *rate, burst: *burst, maxPending: *maxPending,
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	dumpInstruments()
}

// setupObserver builds the shared observer from the observability flags:
// a Trace for -trace, a Metrics registry for -metrics and/or the -pprof
// HTTP server (which serves it at /metrics next to /debug/pprof/).
func setupObserver(pprofAddr string) {
	var list []afl.Observer
	if wantTrace {
		traceRec = &afl.Trace{}
		list = append(list, traceRec)
	}
	if wantMet || pprofAddr != "" {
		metRec = afl.NewMetrics(nil)
		list = append(list, metRec)
	}
	if pprofAddr != "" {
		http.Handle("/metrics", metRec.Registry())
		go func() {
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
	}
	observer = afl.MultiObserver(list...)
}

// dumpInstruments prints the collected trace and metrics to stderr.
func dumpInstruments() {
	if traceRec != nil {
		fmt.Fprint(os.Stderr, traceRec.String())
	}
	if metRec != nil && wantMet {
		fmt.Fprint(os.Stderr, metRec.Registry().String())
	}
}

func newServer(seed int64, agents, maxT, k, dim int, retry afl.RetryPolicy) (*afl.Server, afl.Dataset) {
	rng := afl.NewRNG(seed)
	eval, _ := afl.GenerateSynthetic(rng, afl.SyntheticOptions{Samples: 1000, Dim: dim})
	job := afl.Job{Name: "flplatform", T: maxT, K: k, TMax: 60, Dim: dim}
	return afl.NewServer(afl.ServerConfig{
		Job: job, L2: 0.01, Eval: eval, RecvTimeout: 10 * time.Second, Retry: retry,
		Observer: observer,
	}), eval
}

func newAgent(id int, seed int64, maxT, dim int) *afl.Agent {
	// Derive the agent's private shard and resource profile from its own
	// seed so server and client processes need not share state.
	rng := afl.NewRNG(seed + int64(id)*1000003)
	data, _ := afl.GenerateSynthetic(rng, afl.SyntheticOptions{Samples: 300, Dim: dim})
	theta := rng.FloatRange(0.4, 0.7)
	start := rng.IntRange(1, maxT/2)
	end := rng.IntRange(start+1, maxT)
	rounds := rng.IntRange(1, end-start)
	return &afl.Agent{
		ID: id,
		Bids: []afl.Bid{{
			Price: rng.FloatRange(10, 40), Theta: theta,
			Start: start, End: end, Rounds: rounds,
			CompTime: rng.FloatRange(5, 10), CommTime: rng.FloatRange(10, 15),
		}},
		Learner:     &afl.FLClient{ID: id, Data: data, Theta: theta, LR: 0.4},
		L2:          0.01,
		RecvTimeout: 30 * time.Second,
	}
}

func printReport(report afl.SessionReport) {
	fmt.Printf("auction: feasible=%v T_g=%d cost=%.1f winners=%d bidders=%d\n",
		report.Auction.Feasible, report.Auction.Tg, report.Auction.Cost,
		len(report.Auction.Winners), report.ClientsBid)
	for _, r := range report.Rounds {
		fmt.Printf("  round %d: responded %v failed %v accuracy %.3f\n",
			r.Iteration, r.Responded, r.Failed, r.Accuracy)
	}
	fmt.Println("ledger:")
	fmt.Print(report.Ledger.String())
}

func runServer(addr string, agents int, seed int64, maxT, k, dim int, retry afl.RetryPolicy) {
	server, _ := newServer(seed, agents, maxT, k, dim, retry)
	conns := make(map[int]afl.Conn, agents)
	var mu sync.Mutex
	done := make(chan struct{})
	count := 0
	boundAddr, stop, err := afl.Listen(addr, agents, func(c afl.Conn) {
		mu.Lock()
		conns[count] = c
		count++
		if count == agents {
			close(done)
		}
		mu.Unlock()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stop()
	fmt.Printf("listening on %s, waiting for %d agents\n", boundAddr, agents)
	<-done
	report, err := server.RunSession(conns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printReport(report)
}

func runClient(addr string, id int, seed int64, maxT, dim int) {
	conn, err := afl.Dial(addr, 5*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	agent := newAgent(id, seed, maxT, dim)
	report, err := agent.Run(conn)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("agent %d: won=%v rounds=%d paid=%.2f %s\n",
		id, report.Won, report.RoundsRun, report.Paid, report.PayReason)
}

// parseCrash turns "2:3,5:1" into {2: 3, 5: 1} (client → crash round).
func parseCrash(spec string) (map[int]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[int]int)
	for _, part := range strings.Split(spec, ",") {
		cr := strings.SplitN(part, ":", 2)
		if len(cr) != 2 {
			return nil, fmt.Errorf("crash point %q is not client:round", part)
		}
		client, err := strconv.Atoi(strings.TrimSpace(cr[0]))
		if err != nil {
			return nil, fmt.Errorf("crash point %q: %w", part, err)
		}
		round, err := strconv.Atoi(strings.TrimSpace(cr[1]))
		if err != nil {
			return nil, fmt.Errorf("crash point %q: %w", part, err)
		}
		out[client] = round
	}
	return out, nil
}

func runChaos(agents int, seed int64, maxT, k, dim int, retry afl.RetryPolicy, drop, delay, dup float64, crashSpec string) {
	crash, err := parseCrash(crashSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scenario := chaos.Scenario{
		Seed:   seed,
		Agents: agents,
		Job:    afl.Job{Name: "flplatform-chaos", T: maxT, K: k, TMax: 60, Dim: dim},
		Faults: chaos.FaultPlan{
			Seed: seed, Drop: drop, Delay: delay, Duplicate: dup, Crash: crash,
		},
		Retry:    retry,
		Observer: observer,
	}
	out, err := chaos.Run(scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printReport(out.Report)
	for _, rep := range out.Report.Repairs {
		fmt.Printf("repair at round %d: dropped %v, repaired=%v promoted=%v pay=%.2f\n",
			rep.Round, rep.Dropped, rep.Repaired, rep.Promoted, rep.Payments)
	}
	for i, r := range out.AgentReports {
		fmt.Printf("agent %d: won=%v rounds=%d paid=%.2f %s\n",
			i, r.Won, r.RoundsRun, r.Paid, r.PayReason)
	}
	if err := chaos.Check(scenario, out); err != nil {
		fmt.Fprintf(os.Stderr, "invariant violation: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("all session invariants hold")
}

// marketdFlags carries the -mode marketd flag set into runMarketd.
type marketdFlags struct {
	addr, walDir      string
	workers, queue    int
	checkpointEvery   int
	segmentBytes      int64
	retain            int
	tailWarn          int
	rate              float64
	burst, maxPending int
}

// runMarketd serves the durable market daemon: an HTTP/JSON API over an
// afl.Market whose every acknowledged submission survives process death
// (with -wal) and is restored or re-solved on the next start. The
// daemon runs until SIGINT/SIGTERM, then shuts the listener down,
// drains in-flight auctions, and syncs the log.
func runMarketd(f marketdFlags) {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := []afl.Option{
		afl.WithDurability(f.walDir),
		afl.WithWorkers(f.workers), afl.WithQueue(f.queue),
		afl.WithCheckpointEvery(f.checkpointEvery),
		afl.WithSegmentBytes(f.segmentBytes),
		afl.WithRetainOutcomes(f.retain),
		afl.WithRateLimit(f.rate, f.burst),
		afl.WithMaxPending(f.maxPending),
		afl.WithObserver(observer),
	}
	m, err := afl.OpenMarket(context.Background(), opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	next, committed, pending, _ := m.Counts()
	if f.walDir != "" {
		fmt.Printf("marketd: recovered %d committed outcomes, %d pending re-queued (%d faults absorbed), next seq %d\n",
			committed, pending, m.RecoveredFaults(), next)
		info := m.WALInfo()
		fmt.Printf("marketd: wal %d bytes in %d segments, last checkpoint seq %d, tail replayed %d records\n",
			info.Bytes, info.Segments, info.LastCheckpointSeq, info.TailReplayed)
		if f.tailWarn > 0 && info.TailReplayed > f.tailWarn {
			fmt.Fprintf(os.Stderr, "marketd: WARNING: recovery replayed %d tail records (> %d); enable or tighten -checkpoint-every to bound restart time\n",
				info.TailReplayed, f.tailWarn)
		}
	}

	srv := &http.Server{Addr: f.addr, Handler: afl.MarketHandler(m)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("marketd: serving on %s (wal=%q rate=%g burst=%d maxpending=%d checkpoint-every=%d)\n",
		f.addr, f.walDir, f.rate, f.burst, f.maxPending, f.checkpointEvery)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "marketd: signal received, draining")
	case <-m.Dead():
		fmt.Fprintln(os.Stderr, "marketd: market died")
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "marketd:", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	if err := m.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "marketd: close:", err)
		os.Exit(1)
	}
	_, committed, _, _ = m.Counts()
	fmt.Printf("marketd: drained; %d outcomes committed\n", committed)
}

func runDemo(agents int, seed int64, maxT, k, dim int, retry afl.RetryPolicy) {
	server, _ := newServer(seed, agents, maxT, k, dim, retry)
	conns := make(map[int]afl.Conn, agents)
	reports := make([]afl.AgentReport, agents)
	var wg sync.WaitGroup
	for i := 0; i < agents; i++ {
		sc, ac := afl.Pipe(64)
		conns[i] = sc
		agent := newAgent(i, seed, maxT, dim)
		wg.Add(1)
		go func(i int, a *afl.Agent, c afl.Conn) {
			defer wg.Done()
			r, err := a.Run(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "agent %d: %v\n", i, err)
			}
			reports[i] = r
		}(i, agent, ac)
	}
	report, err := server.RunSession(conns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	printReport(report)
	for i, r := range reports {
		fmt.Printf("agent %d: won=%v paid=%.2f %s\n", i, r.Won, r.Paid, r.PayReason)
	}
}
