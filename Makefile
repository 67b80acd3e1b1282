GO ?= go

.PHONY: all ci fmt-check vet build test bench bench-smoke smoke scale-smoke metrics-smoke chaos soak clean

all: vet build test

# ci is the gate for pull requests: static checks (gofmt + vet), the
# deterministic chaos suite, the full race-enabled test suite (which covers
# the sampler and trace-propagation tests), a koshabench smoke run that
# fails unless the JSON output carries the latency-percentile fields, and a
# /metrics exposition smoke against a live koshad. It also runs the
# benchmark module's own unit tests (perfbench is a separate Go module, so
# the root ./... does not reach it), the concurrent-client tests repeated
# to shake out races between writers, the allocation budgets (which hold
# without the race detector only), the path-walker equivalence fuzzers and
# the koshactl request fuzzer for a few seconds each, and the block store
# against a flat-file model for ten (minimizing each new input for at most
# 200 runs, so the ten seconds go to fuzzing).
ci: fmt-check vet build
	$(MAKE) chaos
	$(GO) test -race ./...
	cd perfbench && $(GO) test ./...
	$(GO) test -count=20 -run Concurrent ./internal/cluster
	$(GO) test -count=1 -run Alloc . ./internal/localfs
	$(GO) test -run xxx -fuzz FuzzPathWalk -fuzztime 10s ./internal/localfs
	$(GO) test -run xxx -fuzz FuzzFileData -fuzztime 10s -fuzzminimizetime 200x ./internal/localfs
	$(GO) test -run xxx -fuzz FuzzSplitVirtual -fuzztime 5s ./internal/core
	$(GO) test -run xxx -fuzz FuzzCtlRequest -fuzztime 5s ./internal/core
	$(MAKE) smoke
	$(MAKE) scale-smoke
	$(MAKE) metrics-smoke

# chaos runs the deterministic fault-injection harness under the race
# detector: the scripted failure scenarios, a randomized schedule, and the
# seed-replay determinism check (see internal/chaos). Every failure message
# carries the run's seed; replay it with
#   go test -race ./internal/chaos -run <TestName> -v
# Opt into the longer randomized soak with KOSHA_CHAOS_SOAK=<runs>, pinning
# its base seed with KOSHA_CHAOS_SEED=<seed>.
chaos:
	$(GO) test -race -count=1 ./internal/chaos

# soak is the gated slow target: the 500-node scale-out soak (internal/scale)
# replaying >= 10K Purdue-trace operations under diurnal availability churn
# with the overlay invariant oracle enforced every epoch, followed by the
# maintenance scrub soak (internal/chaos) that injects silent corruption in
# batches and requires the anti-entropy scrub to converge every batch. Each
# run's seed is logged; replay a failure with
#   KOSHA_SCALE_SOAK=1 KOSHA_SCALE_SEED=<seed> go test ./internal/scale -run TestSoakLarge -v
#   KOSHA_MAINT_SOAK=1 KOSHA_MAINT_SEED=<seed> go test ./internal/chaos -run TestMaintScrubSoak -v
soak:
	KOSHA_SCALE_SOAK=1 $(GO) test -count=1 -timeout 30m ./internal/scale -run TestSoakLarge -v
	KOSHA_MAINT_SOAK=1 $(GO) test -count=1 -timeout 30m ./internal/chaos -run TestMaintScrubSoak -v

# scale-smoke is the quick (<=100-node) scale-sweep variant wired into ci:
# two soak points plus the hops-vs-N JSON fields the docs table is built from.
scale-smoke:
	@out=$$($(GO) run ./cmd/koshabench -exp scale -quick -format json); \
	for f in mean_route_hops probe_mean_hops mean_join_ms replica_fanout; do \
		echo "$$out" | grep -q "\"$$f\"" || { echo "scale-smoke: missing $$f in koshabench JSON" >&2; exit 1; }; \
	done; \
	echo "scale-smoke: koshabench scale JSON ok"

smoke:
	@out=$$($(GO) run ./cmd/koshabench -exp latency -quick -format json); \
	for f in p50_ms p95_ms p99_ms mean_route_hops; do \
		echo "$$out" | grep -q "\"$$f\"" || { echo "smoke: missing $$f in koshabench JSON" >&2; exit 1; }; \
	done; \
	echo "smoke: koshabench latency JSON ok"
	@out=$$($(GO) run ./cmd/koshabench -exp sync -quick -format json); \
	for f in full_bytes delta_bytes delta_pct files_sent; do \
		echo "$$out" | grep -q "\"$$f\"" || { echo "smoke: missing $$f in koshabench JSON" >&2; exit 1; }; \
	done; \
	echo "smoke: koshabench sync JSON ok"
	@out=$$($(GO) run ./cmd/koshabench -exp dedup -quick -format json); \
	for f in dedup_ratio stored_bytes edit_delta_bytes promote_delta_bytes edit_full_bytes promote_full_bytes; do \
		echo "$$out" | grep -q "\"$$f\"" || { echo "smoke: missing $$f in koshabench JSON" >&2; exit 1; }; \
	done; \
	echo "smoke: koshabench dedup JSON ok"
	@out=$$($(GO) run ./cmd/koshabench -exp stream -quick -format json); \
	for f in seq_rpcs_base seq_rpcs_stream read_rpc_ratio write_rpc_ratio seq_mbps_stream; do \
		echo "$$out" | grep -q "\"$$f\"" || { echo "smoke: missing $$f in koshabench JSON" >&2; exit 1; }; \
	done; \
	echo "smoke: koshabench stream JSON ok"
	@out=$$($(GO) run ./cmd/koshabench -exp rebalance -quick -format json); \
	for f in skew_before skew_after moved_bytes moved_fraction high_water; do \
		echo "$$out" | grep -q "\"$$f\"" || { echo "smoke: missing $$f in koshabench JSON" >&2; exit 1; }; \
	done; \
	echo "smoke: koshabench rebalance JSON ok"

# metrics-smoke spawns a real koshad with the pprof/metrics listener on and
# asserts the Prometheus exposition carries an overlay-health gauge and a
# per-op latency histogram.
metrics-smoke:
	@$(GO) build -o /tmp/koshad-smoke ./cmd/koshad; \
	/tmp/koshad-smoke -listen 127.0.0.1:7391 -pprof 127.0.0.1:7392 -seed 7 >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	out=""; \
	for i in $$(seq 1 50); do \
		out=$$(curl -sf http://127.0.0.1:7392/metrics) && break; \
		sleep 0.2; \
	done; \
	[ -n "$$out" ] || { echo "metrics-smoke: /metrics never answered" >&2; exit 1; }; \
	echo "$$out" | grep -q '^kosha_overlay_leafset_size ' || { echo "metrics-smoke: overlay-health gauge missing" >&2; exit 1; }; \
	echo "$$out" | grep -q '^# TYPE kosha_op_lookup_ns histogram' || { echo "metrics-smoke: latency histogram missing" >&2; exit 1; }; \
	echo "metrics-smoke: /metrics exposition ok"

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -short -race ./...

# bench runs the concurrency-scaling benchmark (sweep goroutine counts to
# see the sharded hot path scale) alongside the cache-ablation benchmark,
# the full-vs-delta replica sync comparison, the content-addressed chunk
# store comparison (dedup ratio, chunk-delta edits, promote repair), and
# the large-file streaming comparison (stop-and-wait vs pipelined
# readahead + write-back), and the wall-clock data-path microbenches with
# their allocation counts (the mount's 32 KiB write/read and warm lookup,
# and the wire codec), and the store's path walk, mutation notification,
# 2 MiB sequential write and 32 KiB block read.
bench:
	$(GO) test -run xxx -bench 'BenchmarkKosha(Write32K|Read32K|Lookup)' -benchmem .
	$(GO) test -run xxx -bench 'Benchmark(LookupPath|OverwriteNotify|SequentialWrite2MiB|Read32K)' -benchmem ./internal/localfs
	$(GO) test -run xxx -bench 'Benchmark(Encode|Decode)Mixed' -benchmem ./internal/wire
	$(GO) test -run xxx -bench 'BenchmarkParallelMetadata' -cpu=1,2,4,8 -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkAblationMetadataCache' -short -benchtime=1x .
	$(GO) run ./cmd/koshabench -exp sync
	$(GO) run ./cmd/koshabench -exp dedup
	$(GO) run ./cmd/koshabench -exp stream

bench-smoke:
	$(GO) test -short -bench=. -benchtime=1x ./...

clean:
	$(GO) clean ./...
