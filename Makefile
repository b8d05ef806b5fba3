# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet lint archlint bench-module bench bench-record experiments verify cover race examples campaign-smoke fuzz-smoke serve-smoke cluster-smoke clean

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

# What the CI lint job runs: vet, gofmt cleanliness, and the
# execution-layer boundary check (engines are only constructed and run
# through internal/exec; see scripts/archlint.sh).
lint: vet archlint
	test -z "$$(gofmt -l .)"

archlint:
	./scripts/archlint.sh

# bench/ is its own module (repro/bench, replace repro => ../), so the
# root `go build ./...` and `go test ./...` never compile it; vet and
# test it here so an API it uses cannot break unnoticed.
bench-module:
	cd bench && go vet ./... && go test ./...

test:
	go test ./...

# The second line repeats the coordinator's wake/timer paths and the
# worker's shard slot handling, where an ordering bug shows only sometimes;
# the third does the same for the campaign's cancellation and lane paths.
race:
	go test -race ./...
	go test -race -count=5 -run 'Cluster|Shard' ./internal/cluster/ ./internal/serve/
	go test -race -count=5 -run 'Context|Cancel|Lane' ./internal/campaign/

cover:
	go test -cover ./...

# Build every program under examples/ and run each one; a non-zero exit
# fails the target. `go build ./...` only compiles them.
EXAMPLES := $(notdir $(wildcard examples/*))
examples:
	go build -o .examples_build/ ./examples/...
	for e in $(EXAMPLES); do echo "== examples/$$e"; ./.examples_build/$$e || exit 1; done

bench:
	go test -bench=. -benchmem ./...

# Regenerate BENCH_3.json: run the scalar reference and both lane
# benchmarks, then let scripts/benchrecord parse the output, enforce the
# >= 6x acceptance bar vs BENCH_2's recorded scalar trial cost, and write
# the record. Override DATE to restamp (same input + same DATE => same
# JSON, so regeneration is diffable).
DATE ?= 2026-08-08
bench-record:
	go test -run '^$$' -bench 'BenchmarkBroadcastReuse$$|BenchmarkLaneBroadcast$$|BenchmarkLaneBroadcastSmall$$' \
		-benchmem -benchtime 2s . > /tmp/bench-record.out
	go run ./scripts/benchrecord -in /tmp/bench-record.out -date $(DATE) \
		-comment "PR 8 acceptance record: bit-parallel lane engine (internal/lanes) vs the scalar sampled fast path. The headline metric is BenchmarkLaneBroadcast ns/trial (64 lane-parallel trials per op) against BENCH_2's per-trial scalar cost on the same n=100000 d=25 connected Gnp workload." \
		-ref-name "BenchmarkBroadcastReuse in BENCH_2.json (scalar sampled fast path, same workload and machine)" \
		-ref-ns 36789982 -accept-ratio 6 -out BENCH_3.json
	go test -run '^$$' -bench 'BenchmarkLaneBroadcast$$|BenchmarkFacadeRunBatch$$' \
		-benchmem -benchtime 2s . > /tmp/bench-record-exec.out
	go run ./scripts/benchrecord -in /tmp/bench-record-exec.out -date $(DATE) \
		-comment "PR 10 acceptance record: facade RunBatch through the unified execution layer (internal/exec) vs the raw lane engine on the same n=100000 d=25 workload, same run. The gate is same-run executor overhead (BenchmarkFacadeRunBatch ns/trial over BenchmarkLaneBroadcast ns/trial), which is portable across machines; a regression that drops the batch path off the lane backend lands near the 7x scalar cost, far above the bar." \
		-lane-bench BenchmarkFacadeRunBatch -base-bench BenchmarkLaneBroadcast \
		-max-overhead 1.25 -out BENCH_4.json
	@echo "bench-record: wrote BENCH_3.json and BENCH_4.json"

# Regenerate the EXPERIMENTS.md tables (medium scale, recorded seed).
experiments:
	go run ./cmd/experiments -scale medium -seed 2006

# Machine-checkable reproduction scorecard: one pass/fail per claim.
verify:
	go run ./cmd/experiments -verify -seed 2006

# Kill-and-resume smoke test of the campaign runner: run a tiny campaign
# to completion, then re-run it interrupted after 3 samples and resume
# from the checkpoint — the two -json reports must be byte-identical, and
# the offline `campaign report` must agree.
campaign-smoke:
	rm -rf /tmp/campaign-smoke && mkdir -p /tmp/campaign-smoke
	go run ./cmd/campaign spec -preset smoke -seed 2006 > /tmp/campaign-smoke/spec.json
	go run ./cmd/campaign run -spec /tmp/campaign-smoke/spec.json -out /tmp/campaign-smoke/full -quiet -json > /tmp/campaign-smoke/full.json
	go run ./cmd/campaign run -spec /tmp/campaign-smoke/spec.json -out /tmp/campaign-smoke/ck -halt-after 3 -quiet -json > /tmp/campaign-smoke/partial.json
	go run ./cmd/campaign run -spec /tmp/campaign-smoke/spec.json -out /tmp/campaign-smoke/ck -resume -quiet -json > /tmp/campaign-smoke/resumed.json
	cmp /tmp/campaign-smoke/full.json /tmp/campaign-smoke/resumed.json
	go run ./cmd/campaign report -out /tmp/campaign-smoke/ck -json > /tmp/campaign-smoke/offline.json
	cmp /tmp/campaign-smoke/full.json /tmp/campaign-smoke/offline.json
	@echo "campaign-smoke: resume converged to the uninterrupted report"

# End-to-end smoke test of the radiosimd daemon: build the binary, boot
# it on a random port, fire a run, a JSONL stream and a metrics scrape
# over real HTTP (asserting the graph-cache hit), then SIGTERM and
# require a clean drain with exit code 0.
serve-smoke:
	go test -run '^TestDaemonSmoke$$' -count=1 -v ./cmd/radiosimd/

# End-to-end smoke test of the cluster subsystem: build the campaign and
# radiosimd binaries, boot a coordinator plus two workers, SIGKILL one
# worker while it holds a lease mid-shard, and require the distributed
# report to be byte-identical to a local single-process run — the lease
# must expire and the shard be reassigned to the surviving worker.
cluster-smoke:
	go test -run '^TestClusterSmoke$$' -count=1 -v ./cmd/campaign/

# Short mutation run of every native fuzz target (go's one-fuzz-target-
# per-invocation limit forces the loop). The checked-in seed corpora under
# testdata/fuzz run on every plain `go test`; this additionally mutates.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzGraphBuild$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzSubgraph$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzTraversal$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzReception$$' -fuzztime 10s ./internal/radio/
	go test -run '^$$' -fuzz '^FuzzLoadSamples$$' -fuzztime 10s ./internal/campaign/
	go test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/campaign/
	go test -run '^$$' -fuzz '^FuzzRunRequest$$' -fuzztime 10s ./internal/serve/
	go test -run '^$$' -fuzz '^FuzzLeaseOffer$$' -fuzztime 10s ./internal/serve/
	go test -run '^$$' -fuzz '^FuzzGeometricLog$$' -fuzztime 10s ./internal/xrand/

clean:
	go clean ./...
	rm -rf .examples_build
