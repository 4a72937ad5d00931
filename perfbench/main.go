// Command perfbench is the repository benchmark: three workloads over the
// public afl API, each printing its end-to-end metrics (untraced run) or
// per-layer metrics (traced run) as one JSON line.
//
//	perfbench --workload market-http|solve-10k|restart --seed N --seconds S --trace 0|1
//
// Inputs are generated from --seed during set-up; every output is checked
// against a reference outside the timed window, and a failed check fails
// the run (exit 1, correct=false, no numbers). Build and run it through
// run.sh, which keeps every artifact inside the working directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// spec names one metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run. cal_ms_per_op is the
// process CPU time (user + system, every goroutine and the GC included)
// one operation costs, in the calibrated milliseconds of calib.go: one
// committed submission (market-http), one compile + solve (solve-10k),
// one restart until its backlog committed (restart). Wall-clock
// latencies move with the load other tenants put on a shared host by far
// more than any regression bound, so they are the wall.* per-layer
// metrics instead.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"cal_ms_per_op", "ms"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0. The wall.* metrics come from the untraced window
// and map onto each workload's operation:
//
//	wall.ack_ms_*     due time -> the caller's request is accepted: HTTP
//	                  200 {"seq"} (market-http), RunSet returns
//	                  (solve-10k), OpenMarket returns (restart)
//	wall.commit_ms_*  due time -> the outcome is final: Market.Wait
//	                  returns (market-http), RunSet returns (solve-10k),
//	                  every re-queued submission committed (restart)
//
// _tail is p90 on every workload, with at least ten samples beyond it.
var perLayer = []spec{
	{"wall.ack_ms_p50", "ms"},
	{"wall.ack_ms_tail", "ms"},
	{"wall.commit_ms_p50", "ms"},
	{"wall.commit_ms_tail", "ms"},
	{"marketd.ack_ms_p99", "ms"},
	{"marketd.commit_ms_p99", "ms"},
	{"marketd.http_serve_ms_p50", "ms"},
	{"marketd.http_serve_ms_p99", "ms"},
	{"marketd.http_client_ms_p50", "ms"},
	{"marketd.refused", "count"},
	{"marketd.rate_limited", "count"},
	{"marketd.admission_rejected", "count"},
	{"marketd.post_ack_ms_p50", "ms"},
	{"marketd.post_ack_ms_p99", "ms"},
	{"marketd.commit_rest_ms_p50", "ms"},
	{"marketd.recover_ms_p50", "ms"},
	{"marketd.open_rest_ms_p50", "ms"},
	{"marketd.pending_requeued", "count"},
	{"wal.fsync_ms_p50", "ms"},
	{"wal.fsync_ms_p99", "ms"},
	{"wal.records_per_fsync", "count"},
	{"wal.fsyncs_per_auction", "count"},
	{"wal.records_per_auction", "count"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_ms_p50", "ms"},
	{"wal.checkpoint_ms_max", "ms"},
	{"wal.segments_rotated", "count"},
	{"wal.tail_records", "count"},
	{"wal.live_mb", "MB"},
	{"wal.dir_mb", "MB"},
	{"batch.queue_wait_ms_p50", "ms"},
	{"batch.queue_wait_ms_p99", "ms"},
	{"batch.queue_depth_max", "count"},
	{"core.solve_ms_p50", "ms"},
	{"core.solve_ms_p99", "ms"},
	{"core.compile_ms_p50", "ms"},
	{"core.engine_ms_p50", "ms"},
	{"core.sweep_ms_p50", "ms"},
	{"core.pricing_ms_p50", "ms"},
	{"core.pricing_ms_p90", "ms"},
	{"core.wdp_solves_per_auction", "count"},
	{"core.wdp_ms_p50", "ms"},
	{"core.probes_per_winner", "count"},
	{"core.allocs_per_auction", "count"},
	{"core.alloc_mb_per_auction", "MB"},
	{"gen.late_ms_p99", "ms"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.cal_kernel_ms", "ms"},
	{"proc.cpu_util", "ratio"},
	{"proc.gc_cycles", "count"},
	{"host.fsync_ms_p50", "ms"},
	{"error_rate", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"recon.ack_rest_ms", "ms"},
	{"recon.solve_rest_ms", "ms"},
}

// lateBoundMs bounds the open-loop generator's p99 lateness. Lateness
// below it is charged to the request's latency (timing starts at the due
// time); beyond it the generator fell a dozen sends behind per
// connection, so it, not the market, shaped the arrivals and the run is
// invalid.
const lateBoundMs = 50.0

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 3

// Set-up runs on setupProcs Ps; each workload switches to timedProcs
// before its first timed window. With a second P the scheduler spins and
// wakes idle threads, and that CPU shrinks when other tenants load the
// host, so cal_ms_per_op would move with them.
const (
	setupProcs = 2
	timedProcs = 1
)

// params configures one workload run.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // private scratch directory of this run
	short   bool   // tiny sizes, for the harness self-test
	corrupt bool   // perturb one expected outcome, for the self-test
}

func (p params) window() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// report is what one workload run measured.
type report struct {
	attempted, failed int
	checkErr          error // first failed output check or validity rule
	e2e               map[string]float64
	layer             map[string]float64
	detail            map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

// setWall records the wall-clock latencies of the untraced window: the
// wall.* per-layer metrics of a traced run, and part of every detail line.
func (r *report) setWall(ack, commit samples, q float64) {
	w := map[string]float64{
		"wall.ack_ms_p50":     ack.p50(),
		"wall.ack_ms_tail":    ack.pct(q),
		"wall.commit_ms_p50":  commit.p50(),
		"wall.commit_ms_tail": commit.pct(q),
	}
	for k, v := range w {
		r.layer[k] = v
	}
	r.detail["wall"] = w
}

// setCPU records the uncalibrated CPU cost of an operation and the
// calibration kernel's CPU time, both in ms: per-layer metrics of a
// traced run, and part of every detail line.
func (r *report) setCPU(cpuMs, kernelMs float64) {
	r.layer["proc.cpu_ms_per_op"] = cpuMs
	r.layer["proc.cal_kernel_ms"] = kernelMs
	r.detail["cpu"] = map[string]float64{"cpu_ms_per_op": cpuMs, "cal_kernel_ms": kernelMs}
}

// fail records an output-check failure (the first one is kept).
func (r *report) fail(err error) {
	r.failed++
	if r.checkErr == nil {
		r.checkErr = err
	}
}

var workloads = map[string]func(context.Context, params) (*report, error){
	"market-http": runMarketHTTP,
	"solve-10k":   runSolve,
	"restart":     runRestart,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricsOf selects the metrics a run prints: every end-to-end metric
// untraced, every per-layer metric traced.
func metricsOf(rep *report, trace bool) (map[string]metric, error) {
	out := map[string]metric{}
	if !trace {
		for _, s := range endToEnd {
			v, ok := rep.e2e[s.name]
			if !ok {
				return nil, fmt.Errorf("workload did not measure %s", s.name)
			}
			out[s.name] = metric{v, s.unit}
		}
		return out, nil
	}
	for _, s := range perLayer {
		out[s.name] = metric{rep.layer[s.name], s.unit}
	}
	return out, nil
}

// execute runs one workload and returns the result line plus the detail
// line printed before it. A non-nil error means the run could not
// measure at all.
func execute(ctx context.Context, name string, p params) (result, map[string]any, error) {
	wl, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(setupProcs))
	fp, err := takeFingerprint(p.dir)
	if err != nil {
		return result{}, nil, fmt.Errorf("fingerprint: %w", err)
	}
	rep, err := wl(ctx, p)
	if err != nil {
		return result{}, nil, err
	}
	rep.layer["host.fsync_ms_p50"] = fp.FsyncMsP50
	rep.layer["error_rate"] = ratio(float64(rep.failed), float64(rep.attempted))
	detail := map[string]any{"workload": name, "seed": p.seed, "seconds": p.seconds, "trace": p.trace, "env": fp, "detail": rep.detail}
	res := result{Correct: rep.checkErr == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if rep.checkErr != nil {
		detail["check_error"] = rep.checkErr.Error()
		return res, detail, nil
	}
	if res.Metrics, err = metricsOf(rep, p.trace); err != nil {
		return result{}, nil, err
	}
	return res, detail, nil
}

func main() {
	workload := flag.String("workload", "", "market-http, solve-10k or restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement window per phase")
	trace := flag.String("trace", "0", "1 for the traced per-layer run")
	dir := flag.String("dir", ".bench_build/run", "scratch directory root")
	flag.Parse()
	if *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %q", *trace))
	}

	// A run must end within 180 s whatever hangs.
	time.AfterFunc(170*time.Second, func() { fatal(fmt.Errorf("run exceeded 170 s")) })

	runDir = filepath.Join(*dir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatal(err)
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == "1", dir: runDir}
	res, detail, err := execute(context.Background(), *workload, p)
	os.RemoveAll(runDir)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(detail)
	enc.Encode(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", detail["check_error"])
		os.Exit(1)
	}
}

// runDir is this run's scratch directory, removed on every exit path.
var runDir string

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	if runDir != "" {
		os.RemoveAll(runDir)
	}
	os.Exit(1)
}
