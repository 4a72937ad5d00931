# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race race cover bench bench-json bench-big bench-frontier fuzz market-e2e marketsim bench-market figures ablations vet clean api-check api-update

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

# Regenerate BENCH_core.json: incremental sweep engine vs the frozen seed
# solver at I ∈ {100, 500, 1000}, the sweep_w{1,2,4,8} worker scaling
# table, the 10⁴-client columnar row, the exact-critical payments paths
# (eager-serial seed vs lazy/parallel chosen-T̂_g pricing) and the batch
# throughput paths.
bench-json:
	$(GO) run ./cmd/benchcore -out BENCH_core.json

# bench-json extended to the large columnar populations: 10⁵- and
# 10⁶-client single-minded instances through CompileBids→RunSet, with the
# worker scaling table at each size. Minutes, not CI material.
bench-big:
	$(GO) run ./cmd/benchcore -big -out BENCH_core.json

# The solver quality-vs-speed frontier at the 10⁵-client population:
# exact vs coarse-fine (default and stride-16) vs lp-round, each row
# carrying its certified approximation ratio, plus the pooled-simplex
# alloc row. The summary reports the fastest tier certified within 1.05×
# and within 1.2× of the exact sweep. Minutes, not CI material (the CI
# bench smoke runs the -quick frontier pair instead).
bench-frontier:
	$(GO) run ./cmd/benchcore -frontier -out BENCH_core.json

# Short fuzzing pass over the fuzz targets (regression corpus always runs
# as part of `make test`).
fuzz:
	$(GO) test -run=FuzzValidateBids -fuzz=FuzzValidateBids -fuzztime=30s ./internal/core/
	$(GO) test -run=FuzzCompileBids -fuzz=FuzzCompileBids -fuzztime=30s ./internal/core/
	$(GO) test -run=FuzzBidJSON -fuzz=FuzzBidJSON -fuzztime=30s ./cmd/aflauction/
	$(GO) test -run=FuzzWorkloadJSON -fuzz=FuzzWorkloadJSON -fuzztime=30s ./internal/workload/
	$(GO) test -run=FuzzWALRecord -fuzz=FuzzWALRecord -fuzztime=30s ./internal/wal/
	$(GO) test -run=FuzzWALSegment -fuzz=FuzzWALSegment -fuzztime=30s ./internal/wal/
	$(GO) test -run=FuzzSubmitBody -fuzz=FuzzSubmitBody -fuzztime=30s ./internal/marketd/
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

# Regenerate BENCH_market.json in full: the fleet load figures plus the
# durability fast-path tables — sustained fully durable ingest with and
# without group commit, and cold-restart recovery time at 10³..10⁶
# auctions of history with and without checkpoints. Minutes, not CI
# material (the CI market-e2e job runs the -quick smoke instead).
bench-market:
	$(GO) run ./cmd/marketsim -sessions 1000 -seed 1 -durability -out BENCH_market.json

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
