# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race race cover bench bench-core fuzz market-e2e marketsim figures ablations vet clean api-check api-update

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

test-race: race

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Micro-benchmarks of the solve paths and the durable market, ten runs
# each with allocation counts, written to BENCH_core.txt (headed by the Go
# version and the CPU count) in the text format benchstat reads:
# BenchmarkColumnar at GOMAXPROCS 1, 2 and 4 for the sweep's worker
# scaling; the solver frontier; the sweep, pricing and fleet benchmarks;
# durable ingest and recovery. About 20 minutes and 0.5 GB on 2 vCPUs;
# CI runs each once at its smallest size instead.
bench-core:
	{ $(GO) version && echo "nproc: $$(nproc)" && \
	  $(GO) test -run '^$$' -bench 'BenchmarkColumnar' -cpu 1,2,4 -benchmem -count 10 -timeout 0 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSolverFrontier|BenchmarkSweep|BenchmarkExactCriticalPricing|BenchmarkBatchThroughput' -benchmem -count 10 -timeout 0 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkDurableIngest|BenchmarkRecovery' -benchmem -count 10 -timeout 0 ./internal/marketd/ ; \
	} > BENCH_core.txt.tmp && mv BENCH_core.txt.tmp BENCH_core.txt

# Short fuzzing pass over the fuzz targets (regression corpus always runs
# as part of `make test`).
fuzz:
	$(GO) test -run=FuzzValidateBids -fuzz=FuzzValidateBids -fuzztime=30s ./internal/core/
	$(GO) test -run=FuzzCompileBids -fuzz=FuzzCompileBids -fuzztime=30s ./internal/core/
	$(GO) test -run=FuzzSweepVsSeed -fuzz=FuzzSweepVsSeed -fuzztime=30s ./internal/core/
	$(GO) test -run=FuzzBidJSON -fuzz=FuzzBidJSON -fuzztime=30s ./cmd/aflauction/
	$(GO) test -run=FuzzWorkloadJSON -fuzz=FuzzWorkloadJSON -fuzztime=30s ./internal/workload/
	$(GO) test -run=FuzzWALRecord -fuzz=FuzzWALRecord -fuzztime=30s ./internal/wal/
	$(GO) test -run=FuzzWALSegment -fuzz=FuzzWALSegment -fuzztime=30s ./internal/wal/
	$(GO) test -run=FuzzWALReadAt -fuzz=FuzzWALReadAt -fuzztime=30s ./internal/wal/
	$(GO) test -run=FuzzSubmitBody -fuzz=FuzzSubmitBody -fuzztime=30s ./internal/marketd/
	$(GO) test -run=FuzzTailOutcomePayments -fuzz=FuzzTailOutcomePayments -fuzztime=30s ./internal/marketd/
	$(GO) test -run=FuzzMarketScript -fuzz=FuzzMarketScript -fuzztime=30s ./internal/marketsim/

# Kill/restart harness for the durable market daemon: crash-point matrix,
# WAL fault injection, rate-limit and admission-control contracts, run
# under the race detector in shuffled order on one, two and four cores
# with a flake screen (the CI market-e2e job's step).
market-e2e:
	$(GO) test -race -shuffle=on -cpu 1,2,4 -count=3 ./test/e2e/ ./internal/wal/ ./internal/marketd/

# Adversarial fleet: 1000 seeded strategic sessions against the in-process
# market; exits non-zero if any population empirically beats truthtelling
# under A_FL. Writes throughput/latency to BENCH_market.json.
marketsim:
	$(GO) run ./cmd/marketsim -sessions 1000 -seed 1 -out BENCH_market.json

# Full-scale reproduction of the paper's Fig. 3-9 (CSV + ASCII to results/).
figures:
	$(GO) run ./cmd/aflsim -fig all -out results

ablations:
	$(GO) run ./cmd/aflsim -fig none -ablation all -out results

vet:
	$(GO) vet ./...

# Diff the public API surface against the committed golden file. Run
# `make api-update` after an intentional API change.
api-check:
	@$(GO) doc -all . > /tmp/afl_api_check.txt
	@diff -u API.txt /tmp/afl_api_check.txt || \
		(echo "API surface drifted from API.txt; run 'make api-update' if intentional" && exit 1)

api-update:
	$(GO) doc -all . > API.txt

clean:
	rm -rf results/*.csv
