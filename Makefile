GO ?= go

.PHONY: build test race vet bench bench-json bufdebug stream chaos trace hotspot perfbench check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages under the race detector: the coherence
# protocol, the telemetry registry, the fault-injected fabric, the
# lock-free queues, the streaming bench, and the layers between them.
race:
	$(GO) test -race ./internal/core/... ./internal/telemetry/... ./internal/cluster/... ./internal/fabric/... ./internal/fault/... ./internal/chaos/... ./internal/queue/... ./internal/bench/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Machine-readable micro results (sequential/random paths per system,
# streaming bulk transfers serial and pipelined) with run metadata.
bench-json:
	$(GO) run ./cmd/darray-bench -json-out BENCH_micro.json

# Buffer-misuse detection: -tags bufdebug arms double-release and
# use-after-release panics and quarantines released buffers, so any
# stale alias in the zero-copy data path trips deterministically.
bufdebug:
	$(GO) test -tags bufdebug -count=1 ./internal/buf/ ./internal/core/ ./internal/chaos/

# Streaming smoke: the bulk-transfer pipeline, doorbell batching, and
# coalescing tables at CI scale, plus the >=2x speedup gate.
stream:
	$(GO) run ./cmd/darray-bench -fig stream -words-per-node 8192 -max-nodes 3
	$(GO) test -run 'TestStream' -count=1 ./internal/bench/

# Short seeded chaos smoke: every workload (microbench, bulk-range,
# PageRank, CC, KVS YCSB-B, multi-stream bulk) must survive the default
# fault schedule bit-identically.
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/chaos/

# Function-shipping smoke: the RMW-heavy hotspot crossover tables
# (skew x ship mode) at CI scale, plus the crossover acceptance gate
# (auto >= 1.5x off at theta=0.99, auto within 5% of off at theta=0).
hotspot:
	$(GO) run ./cmd/darray-bench -fig hotspot -max-nodes 6
	$(GO) test -run 'TestHotspot|TestShip' -count=1 ./internal/bench/ ./internal/core/

# Tracing smoke: a small traced KVS workload exports a Perfetto-loadable
# trace, the analyzer reloads it, and the acceptance tests verify that
# the exported JSON parses, every non-root span links to a live parent,
# and the critical path covers >= 95% of the slowest root op.
trace:
	$(GO) run ./cmd/darray-kv -nodes 3 -threads 1 -records 2048 -ops 500 -trace-out $(or $(TMPDIR),/tmp)/darray-trace-smoke.json
	$(GO) run ./cmd/darray-trace $(or $(TMPDIR),/tmp)/darray-trace-smoke.json
	$(GO) test -run 'TestAcceptance' -count=1 ./internal/trace/

# The repo benchmark's own tests (perfbench is a separate module): they
# prove its correctness checks are live (every workload runs; injected
# corruption and stalls are caught; percentiles are computed right).
perfbench:
	cd perfbench && $(GO) test -count=1 ./...

check: build vet test race stream chaos bufdebug trace hotspot perfbench
