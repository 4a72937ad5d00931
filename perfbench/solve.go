package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/fedauction/afl"
)

// solve-10k: a closed loop of single large auctions through the columnar
// core, cycling over populations of 2000 clients x 5 bids (10^4 bids,
// T=50, K=20). Each iteration is CompileBids -> RunSet with two workers
// and exact-critical pricing.
const (
	solveClients = 2000
	solveBidsPer = 5
	// Solve time varies up to fivefold between populations (with the
	// selected T_g and its winner count), so each seed draws many, solves
	// each equally often, and cal_ms_per_op is the geometric mean of the
	// populations' medians: it moves less with the seed's mix of cheap and
	// dear populations than a median over all solves does.
	solvePops    = 100 // one solve each fills the p90's hundred samples
	solveWorkers = 2
	solveTailQ   = 0.90
)

// solveInputs holds what the loop needs to rebuild and check each
// population. Populations are regenerated from their seed before each
// solve (outside the timing) and references are kept as digests, so the
// harness holds almost nothing live: a large live heap of its own would
// change how often, and how expensively, the solver's garbage is
// collected.
type solveInputs struct {
	seed    int64
	clients int
	cfg     afl.Config // PaymentRule = RuleExactCritical
	digests [][sha256.Size]byte
}

func (in *solveInputs) population(j int) ([]afl.Bid, error) {
	wp := afl.DefaultWorkloadParams()
	wp.Clients, wp.BidsPerUser = in.clients, solveBidsPer
	wp.Seed = in.seed*1_000_003 + int64(j)
	return afl.GenerateWorkload(wp)
}

// digest is a SHA-256 of the complete result, unexported fields included
// and maps in key order, with floats in their exact shortest form:
// equal digests mean results equal bit for bit.
func digest(res afl.Result) [sha256.Size]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%#v", res)))
}

// newSolveInputs draws the populations and solves each once with one
// worker: the reference every timed solve must reproduce bit for bit.
// The reference solves run two at a time, one per core. With corrupt,
// the first reference is perturbed by one ulp before it is digested.
func newSolveInputs(ctx context.Context, seed int64, clients, pops int, corrupt bool) (*solveInputs, error) {
	wp := afl.DefaultWorkloadParams()
	in := &solveInputs{seed: seed, clients: clients, cfg: wp.Config(), digests: make([][sha256.Size]byte, pops)}
	in.cfg.PaymentRule = afl.RuleExactCritical
	errs := make([]error, solveWorkers)
	var wg sync.WaitGroup
	for g := 0; g < solveWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := g; j < pops; j += solveWorkers {
				bids, err := in.population(j)
				var ref afl.Result
				if err == nil {
					ref, err = afl.Run(ctx, bids, in.cfg, afl.WithWorkers(1))
				}
				if err != nil {
					errs[g] = fmt.Errorf("solve population %d: %w", j, err)
					return
				}
				if corrupt && j == 0 {
					corruptRef(&ref)
				}
				in.digests[j] = digest(ref)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// checkSolve is the per-iteration output check: equal to the one-worker
// reference and valid under every constraint of the ILP.
func (in *solveInputs) checkSolve(k int, res afl.Result, bids []afl.Bid) error {
	if digest(res) != in.digests[k] {
		return fmt.Errorf("result differs from the one-worker reference (cost %v, %d winners)", res.Cost, len(res.Winners))
	}
	return afl.CheckSolution(bids, res, in.cfg)
}

// more reports whether the loop continues past iteration i: until the
// window has passed, the tail has its samples, and every population has
// been solved equally often.
func more(i int, start time.Time, p params, minN, pops int) bool {
	return time.Since(start) < p.window() || i < minN || i%pops != 0
}

func runSolve(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	clients, pops, minN := solveClients, solvePops, minSamples(solveTailQ)
	if p.short {
		clients, pops, minN = 300, 2, 3
	}
	var in *solveInputs
	var setups []time.Duration
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		var err error
		if in, err = newSolveInputs(ctx, p.seed, clients, pops, p.corrupt); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
	}
	runtime.GOMAXPROCS(timedProcs)
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	// Untraced phase: the end-to-end numbers (and, in a traced run, the
	// allocation counts, read around each solve outside its timing).
	var lat, kernel samples
	perPop := make([]samples, pops) // calibrated CPU ms of each solve
	rawPop := make([]samples, pops) // CPU ms of each solve
	var allocs, allocBytes uint64
	var ms0, ms1 runtime.MemStats
	meter := startProcMeter()
	start := time.Now()
	for i := 0; more(i, start, p, minN, pops); i++ {
		k := i % pops
		bids, err := in.population(k)
		if err != nil {
			return nil, err
		}
		// Start each solve from a collected heap, so its own allocations,
		// not the harness's or the last solve's, decide when it collects.
		runtime.GC()
		kern := cal.run()
		if p.trace {
			runtime.ReadMemStats(&ms0)
		}
		c := cpuTime()
		t := time.Now()
		set := afl.CompileBids(bids)
		res, err := afl.RunSet(ctx, set, in.cfg, afl.WithWorkers(solveWorkers), afl.WithPaymentRule(afl.RuleExactCritical))
		d := time.Since(t)
		dc := cpuTime() - c
		if p.trace {
			runtime.ReadMemStats(&ms1)
			allocs += ms1.Mallocs - ms0.Mallocs
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		rep.attempted++
		if err == nil {
			err = in.checkSolve(k, res, bids)
		}
		if err != nil {
			rep.fail(fmt.Errorf("iteration %d (population %d): %w", i, k, err))
			continue
		}
		lat.add(d)
		kernel.add(kern)
		perPop[k] = append(perPop[k], calMs(dc, kern))
		rawPop[k].add(dc)
	}
	popP50 := make(samples, len(perPop))
	rawP50 := make(samples, len(rawPop))
	for k := range perPop {
		popP50[k], rawP50[k] = perPop[k].p50(), rawPop[k].p50()
	}
	rep.detail["population_cal_ms_p50"] = popP50
	untraced := map[string]float64{}
	meter.stop(untraced)
	rep.e2e["setup_s"] = medianDuration(setups).Seconds()
	rep.e2e["heap_mb"] = liveHeapMB()
	rep.e2e["cal_ms_per_op"] = popP50.geomean()
	rep.setCPU(rawP50.geomean(), kernel.p50())
	rep.setWall(lat, lat, solveTailQ)
	rep.detail["tail_quantile"] = solveTailQ
	rep.detail["samples"] = len(lat)
	rep.detail["proc"] = untraced
	if !p.trace || rep.checkErr != nil {
		return rep, nil
	}
	l := rep.layer
	l["core.allocs_per_auction"] = ratio(float64(allocs), float64(rep.attempted))
	l["core.alloc_mb_per_auction"] = ratio(float64(allocBytes)/1e6, float64(rep.attempted))

	// Traced phase: the same loop split at the layer boundaries RunSet
	// crosses (compile, engine build, sweep + pricing), with the
	// observer on the sweep.
	col := newCollector()
	var compile, engine, total, runRest samples
	n0 := rep.attempted
	meter = startProcMeter()
	start = time.Now()
	for i := 0; more(i, start, p, minN, pops); i++ {
		k := i % pops
		bids, err := in.population(k)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		doneBefore := col.solveCount()
		t0 := time.Now()
		set := afl.CompileBids(bids)
		t1 := time.Now()
		eng, err := afl.NewEngineSet(set, in.cfg)
		t2 := time.Now()
		var res afl.Result
		if err == nil {
			res, err = eng.RunCtx(ctx, afl.RunOptions{Workers: solveWorkers, Observer: col})
		}
		t3 := time.Now()
		rep.attempted++
		if err == nil {
			err = in.checkSolve(k, res, bids)
		}
		if err != nil {
			rep.fail(fmt.Errorf("traced iteration %d (population %d): %w", i, k, err))
			continue
		}
		compile.add(t1.Sub(t0))
		engine.add(t2.Sub(t1))
		total.add(t3.Sub(t0))
		if col.solveCount() == doneBefore+1 {
			runRest = append(runRest, ms(t3.Sub(t2))-col.solveAt(doneBefore))
		}
	}
	meter.stop(l)
	col.layers(l)
	sweep := col.sweeps()
	l["core.compile_ms_p50"] = compile.p50()
	l["core.engine_ms_p50"] = engine.p50()
	l["core.sweep_ms_p50"] = sweep.p50()
	stages := compile.p50() + engine.p50() + sweep.p50() + l["core.pricing_ms_p50"]
	l["recon.solve_rest_ms"] = total.p50() - stages
	l["trace.overhead_ms"] = total.p50() - lat.p50()
	rep.detail["traced"] = map[string]any{
		"samples":            rep.attempted - n0,
		"solve_ms_p50":       total.p50(),
		"sum_of_stages_ms":   stages,
		"run_outside_ms_p50": runRest.p50(),
	}
	return rep, nil
}
