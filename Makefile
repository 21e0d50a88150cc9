# Local targets mirroring .github/workflows/ci.yml job-for-job, so a green
# `make ci` locally means a green pipeline.

GO ?= go

.PHONY: all build fmt vet lint test race test-cancel test-partition test-shardrpc test-incmine test-parallel bench bench-storage bench-kernels smoke-server smoke-shards smoke-metrics smoke-subscribe smoke-explain bench-server bench-gate perfbench-check ci

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## fmt: fail when any file needs gofmt (CI parity); run `gofmt -w .` to fix
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet: static analysis
vet:
	$(GO) vet ./...

## lint: staticcheck + govulncheck. The CI lint job installs both with
## `go install`; locally they are skipped (with a warning) when not on PATH,
## so `make ci` stays green on a machine without them.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

## test: the full suite (tier-1 verify), no shortcuts
test:
	$(GO) test ./...

## race: the CI race job — short mode keeps it to a couple of minutes
race:
	$(GO) test -race -short ./...

## test-cancel: the cancellation suites (per-miner, pool, server) under the
## race detector, twice — cancellation paths are timing-sensitive, so the
## repeat flushes order-dependent flakes before they reach main
test-cancel:
	$(GO) test ./... -run Cancel -race -count=2

## test-partition: the SON partitioned-mining suites under the race detector —
## bit-identity of partitioned vs single-shot mines for every configuration,
## phase-1/phase-2 cancellation, the registry's partition capability
## metadata, the server's scatter-gather path, and the server's Chernoff
## screen of DPNB/DCNB (plain path and phase 2)
test-partition:
	$(GO) test -race -count=1 -run 'Partition|Shard|RegistryCapability|Screen' ./internal/partition/... ./internal/algo ./internal/algo/exact ./internal/server

## test-shardrpc: the distributed shard backend's fault-injection suites
## under the race detector — timeout→retry, straggler→hedge, dead
## shard→failover, stale version→re-push, goroutine-leak checks, and the
## server-level RPC bit-identity matrix
test-shardrpc:
	$(GO) test -race -count=1 ./internal/shardrpc
	$(GO) test -race -count=1 -run 'TestRPCShard' ./internal/server

## test-incmine: the incremental-maintenance suites under the race detector —
## ledger-vs-cold bit-identity for every miner family across arbitrary append
## sequences (including the eviction / non-append / border-exhaustion
## fallbacks), the delta counting kernel's bitwise additivity, window
## eviction accounting, and the server's subscribe/ingest/SSE surface
test-incmine:
	$(GO) test -race -count=1 ./internal/incmine ./internal/stream
	$(GO) test -race -count=1 -run 'Subscribe|Incremental|Ingest|Delta|Eviction' ./internal/server ./internal/core

## test-parallel: the shared worker pool and the parallel-determinism suite
## under the race detector at -cpu 1,4,8 — the pool's bounds, ordering,
## chunk-layout, cancellation and leak checks, plus the miner-level worker
## count matrix (short mode) pinning every registry miner bit-identical
## across Workers ∈ {1, 2, 8, GOMAXPROCS}
test-parallel:
	$(GO) test -race -cpu 1,4,8 -count=1 ./internal/parallel
	$(GO) test -race -cpu 1,4,8 -count=1 -short -run TestWorkerCountDeterminism ./internal/algo

## bench: benchmark smoke run — one iteration each, so perf code keeps compiling and running
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

## bench-storage: the arena/vertical counting micro-benchmarks (-benchmem
## under the hood via testing.Benchmark) plus the legacy-vs-arena cold-mine
## comparison; writes BENCH_storage.json and enforces the ≥2× allocs/op
## reduction and no-cold-mine-regression acceptance margins
bench-storage:
	BENCH_STORAGE_OUT=$$(pwd)/BENCH_storage.json $(GO) test ./internal/algo/apriori -run TestWriteStorageBench -count=1 -v

## bench-kernels: the hot-loop kernel benchmarks — intersection kernels vs
## their scalar references per postings-density band (the dense band's margin
## is enforced), the DP verification kernel against the reference
## prob.PBFreqProbDP on the borderline and wide candidate shapes, and the
## accident@0.01 DPNB cold-mine p50, which must beat the committed
## BENCH_partition.json unpartitioned baseline; writes BENCH_kernels.json
bench-kernels:
	BENCH_KERNELS_OUT=$$(pwd)/BENCH_kernels.json BENCH_PARTITION_BASELINE=$$(pwd)/BENCH_partition.json \
		$(GO) test ./internal/algo -run TestWriteKernelsBench -count=1 -v

## smoke-server: boot userve, register a profile over HTTP, mine, ingest, assert 200s
smoke-server:
	sh scripts/smoke_userve.sh

## smoke-shards: multi-process sharded mining — boot 2 ushard shard servers
## plus a userve coordinator routing phase 1 over them; /mine must be
## byte-identical to the in-process path, including after an /ingest version
## bump invalidates the shards' pinned slices
smoke-shards:
	sh scripts/smoke_userve.sh shards

## smoke-metrics: observability smoke over the same three-process cluster —
## /metrics on the coordinator and both shards must parse as Prometheus
## text with the expected families, histogram counts must stay monotonic
## across scrapes, and a sharded /mine must leave one stitched trace
## (coordinator phase spans + wire-propagated shard spans) at /debug/traces
smoke-metrics:
	sh scripts/smoke_userve.sh metrics

## smoke-subscribe: continuous-query smoke — usub subscribes over SSE, an
## /ingest batch streams a refresh diff, and the diff's result-set size must
## match a direct /mine of the grown dataset
smoke-subscribe:
	sh scripts/smoke_userve.sh subscribe

## smoke-explain: query-level observability smoke over the real 2-shard
## cluster — a cold POST /explain must report the executed shardrpc plan
## (partition steps, shard attempt timeline, pushed bytes), the repeat GET
## must report the cache-hit path without perturbing the serving cache,
## /debug/workload must profile the query group, and /debug/dashboard and
## the SLO burn-rate / build-info gauges must be live
smoke-explain:
	sh scripts/smoke_userve.sh explain

## bench-server: closed-loop load benchmark at 1/8/64 clients; writes
## BENCH_server.json plus the partitioned cold-mine comparison
## BENCH_partition.json and the incremental-maintenance comparison
## BENCH_incremental.json (ingest→notify latency vs cold re-mine)
bench-server:
	$(GO) run ./cmd/userve -loadbench -bench_out BENCH_server.json -bench_partition_out BENCH_partition.json \
		-bench_incremental_out BENCH_incremental.json

## bench-gate: re-run the storage, hot-loop kernel, partition, server load,
## and incremental maintenance benchmarks into *.fresh.json and fail on >25%
## p50/p95/p99 regression against the
## committed baselines. The server load bench is shrunk to one client
## level, so only the shared (1-client) level of BENCH_server.json is
## compared — the tail quantiles come from the same telemetry histograms
## /metrics exposes. `make bench-server` + copying the fresh files over
## the baselines re-baselines after an intended change.
bench-gate:
	BENCH_STORAGE_OUT=$$(pwd)/BENCH_storage.fresh.json $(GO) test ./internal/algo/apriori -run TestWriteStorageBench -count=1
	BENCH_KERNELS_OUT=$$(pwd)/BENCH_kernels.fresh.json BENCH_KERNELS_COLD_RUNS=3 \
		$(GO) test ./internal/algo -run TestWriteKernelsBench -count=1
	$(GO) run ./cmd/userve -loadbench -bench_clients 1 -bench_requests 8 \
		-bench_out BENCH_server.fresh.json -bench_partition_out BENCH_partition.fresh.json \
		-bench_incremental_out BENCH_incremental.fresh.json -bench_ingest_rounds 5
	$(GO) run ./scripts/benchgate BENCH_storage.json=BENCH_storage.fresh.json \
		BENCH_kernels.json=BENCH_kernels.fresh.json \
		BENCH_partition.json=BENCH_partition.fresh.json BENCH_server.json=BENCH_server.fresh.json \
		BENCH_incremental.json=BENCH_incremental.fresh.json

## perfbench-check: perfbench is its own module (`replace umine => ../`), so
## the root build never compiles it and a root change that drops a symbol it
## uses would pass every other job. Vet and test it against the current
## tree, then require a 2-second serve-mixed run to pass its oracle.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	@out=$$(bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 2 --trace 0) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "perfbench-check: run did not report \"correct\":true"; exit 1; }

## ci: everything the pipeline runs
ci: build fmt vet lint race test-cancel test-partition test-shardrpc test-incmine test-parallel bench bench-storage bench-kernels smoke-server smoke-shards smoke-metrics smoke-subscribe smoke-explain bench-server bench-gate perfbench-check
