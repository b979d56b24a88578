GO ?= go

.PHONY: all build vet staticcheck fuzz-smoke test race bench bench-engine bench-json bench-1m bench-pairs loadgen-smoke chaos-smoke telemetry-smoke examples ci

all: build vet test

build:
	$(GO) build ./...

# vet runs the stock toolchain vet plus splidt-vet, the repo's own
# go/analysis suite: hotpath (zero-alloc/lock-free transitivity),
# wallclock (no wall-clock or global rand in packet-time code),
# statsmerge (counter-struct field exhaustiveness), atomicmix
# (atomic/plain access mixing). See README "Static analysis".
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/splidt-vet ./...

# staticcheck is optional locally (the offline container doesn't carry
# it); CI installs a pinned version and fails on findings. Config in
# staticcheck.conf.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# 10-second smoke of every seeded fuzzer: wire-format decode, record
# streams, TCAM range expansion, and cuckoo flow-table operation sequences
# checked against the oracle. Catches corpus regressions without the cost
# of a real fuzzing campaign.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzUnmarshal$$' -fuzztime 10s ./internal/pkt
	$(GO) test -run xxx -fuzz 'FuzzUnmarshalControl$$' -fuzztime 10s ./internal/pkt
	$(GO) test -run xxx -fuzz 'FuzzRecordStream$$' -fuzztime 10s ./internal/pkt
	$(GO) test -run xxx -fuzz 'FuzzExpandRange$$' -fuzztime 10s ./internal/tcam
	$(GO) test -run xxx -fuzz 'FuzzCuckooOps$$' -fuzztime 10s ./internal/flowtable

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full evaluation-regeneration benchmark suite (slow).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Engine scaling smoke: pkts/sec at 1/2/4/8 shards, the streaming session
# Feed path, parallel dispatch at 1/2/4 feeders, the timer-wheel advance
# hot path, the expiry churn trajectory, the high-load-factor
# direct-vs-cuckoo trajectory, and the flow-table store micro-benchmarks
# (lookup/insert per scheme).
bench-engine:
	$(GO) test -run xxx -bench 'EngineShards|EngineRecorder|SessionFeed|ParallelFeed|EngineHighLoad|WheelAdvance|EngineChurn' -benchtime 1x .
	$(GO) test -run xxx -bench FlowTable -benchtime 1000x ./internal/flowtable
	$(GO) test -run xxx -bench 'ChurnNext|WireNext|HarnessSteady' -benchtime 100000x ./internal/loadgen

# Engine benchmark trajectory, recorded: the same suite with enough
# repetitions for benchstat, written to BENCH_engine.json in the standard
# Go benchmark text format (what benchstat consumes — compare two commits
# with `benchstat old.json new.json`). Redirect, don't tee: a failing
# benchmark must fail the target, not vanish behind the pipe's status. The
# flow-table micro-benchmarks append with an iteration-count benchtime of
# their own (2 iterations would be noise at nanosecond scale).
bench-json:
	$(GO) test -run xxx -bench 'EngineShards|EngineRecorder|SessionFeed|ParallelFeed|EngineHighLoad|WheelAdvance|EngineChurn' \
		-benchtime 2x -count 3 . > BENCH_engine.json
	$(GO) test -run xxx -bench FlowTable -benchtime 50000x -count 3 \
		./internal/flowtable >> BENCH_engine.json
	$(GO) test -run xxx -bench 'ChurnNext|WireNext|HarnessSteady' -benchtime 200000x -count 3 \
		./internal/loadgen >> BENCH_engine.json
	@cat BENCH_engine.json

# Million-flow scale run, appended to the benchmark trajectory: a 1.2M-flow
# churning population over a 2^21-slot cuckoo deployment (8 shards), driven
# through steady / collision-storm / block-storm phases. Slow (~30s) and
# memory-hungry, so not part of bench-json; run it when the numbers matter.
bench-1m:
	SPLIDT_LOADGEN_1M=1 $(GO) test -run MillionFlowValidation -timeout 30m -v \
		./internal/loadgen | grep '^Benchmark' >> BENCH_engine.json
	@tail -4 BENCH_engine.json

# Paired end-to-end benchmark: PAIRS alternating runs of perfbench on a
# worktree of BASE and on the working tree, fresh seeds per pair, then each
# side's median and quartiles per end-to-end metric and the win count. See
# scripts/bench-pairs.sh.
BASE ?= HEAD
WORKLOAD ?= saturate
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh -b $(BASE) -w $(WORKLOAD) -n $(PAIRS)

# Load-harness smoke: a 100K-flow churning population through all phase
# types — steady, collision storm, block storm — under the race detector,
# exercising the whole stack CLI-first (generator, feeders, engine, report).
loadgen-smoke:
	$(GO) run -race ./cmd/splidt-loadgen -flows 100000 -feeders 2 -shards 2 \
		-slots 262144 -collision-groups 32 \
		-phases "steady:200k storm:150k:coll=0.8 blockstorm:150k:block=500"

# Chaos smoke under the race detector: the faultinject plan unit tests,
# then the engine's seeded fault suite — schedule equivalence under
# non-lossy fault plans at 1 and 4 shards over both flow-table schemes,
# single-shard quarantine containment, deadline-bounded shutdown against a
# stuck worker, and mid-run hitless redeploy with flow-state carry. All
# deterministic in their seeds, so a failure reproduces from the test name.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/faultinject
	$(GO) test -race -count=1 -run 'TestChaos|TestQuarantine|TestShutdownDeadline|TestRedeploy|TestHarnessRedeploy' \
		./internal/engine ./internal/loadgen

# Telemetry-plane smoke: a live loadgen run with -telemetry bound, then
# curl-and-grep assertions over /healthz and /metrics — family presence,
# per-shard samples, and exposition-format parseability. promtool-free.
telemetry-smoke:
	bash scripts/telemetry-smoke.sh

# Build every example (livecontrol included) — they are the API's
# executable documentation and must never rot.
examples:
	$(GO) build ./examples/...

ci: build vet staticcheck race loadgen-smoke chaos-smoke telemetry-smoke bench-engine examples
