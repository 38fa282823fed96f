GO ?= go

.PHONY: all build vet test race check benchmark-check bench bench-smoke benchjson benchcmp fuzz serve-smoke profile profile-contention

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: compile everything, vet, run the full test suite
# under the race detector (the shared decision-table cache and the
# pooled parallel evaluators are concurrency-sensitive), smoke-run
# every benchmark body so a broken workload fails the gate, not the next
# perf investigation, run the soundserve wire-path selftest, and vet and
# test the standing benchmark against the library as it is now.
check: build vet race bench-smoke serve-smoke benchmark-check

# benchmark/ is its own module (sound/benchmark, replace sound => ../), so
# `go build ./...` and `go test ./...` at the root never compile it; a
# library change that breaks its reference replay or generators would
# otherwise surface only when the benchmark is next run.
benchmark-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-smoke executes each hot-path/ablation benchmark body a fixed
# handful of times — correctness of the workloads, not timing.
bench-smoke:
	$(GO) test -bench='Evaluate|Draw|Kernel|Ablation|StreamCheck|StreamThroughput|Explain|Summarize|Checkpoint|Decode|Ingest|MultiCheck' -benchtime=10x -run=^$$ .

# fuzz smoke-runs the hostile-input fuzz targets for FUZZTIME each: the
# snapshot codec (corrupt checkpoints must error, never panic, and
# valid ones must re-encode bit-identically), the kernel/closure
# evaluation parity, the CSV reader, the wire decoders, and the check
# registration grammar POST /checks exposes to untrusted clients. Long
# exploratory runs: raise FUZZTIME or run `go test -fuzz` on one target
# directly.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzKernelClosureParity -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzKernelScalarParity -fuzztime=$(FUZZTIME) ./internal/resample
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/series
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzParseCheck -fuzztime=$(FUZZTIME) ./internal/ingest

# serve-smoke replays the pinned fixture through soundserve's TCP and
# HTTP wire paths and diffs the verdict counters against a direct
# single-process evaluation — the shard fan-in parity contract, end to
# end over real sockets.
serve-smoke:
	$(GO) run ./cmd/soundserve -selftest -fixture testdata/gapped_borderline.csv

# benchjson regenerates the machine-readable hot-path benchmark record.
benchjson:
	$(GO) run ./cmd/soundbench -benchjson BENCH_PR13.json

# benchcmp diffs the two most recent benchmark records (BENCH_*.json in
# natural version order) spec by spec — ns/op, allocs/op, and domain
# metrics — and fails on any >20% ns/op regression. Override the
# threshold with GATE (0 = report only).
GATE ?= 20
benchcmp:
	$(GO) run ./cmd/soundbench -benchcmp -gate $(GATE)

# profile records CPU and allocation profiles of the evaluator hot path
# (the Evaluate* micro-benchmarks); inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/soundbench -benchjson /dev/null -benchfilter Evaluate -cpuprofile cpu.pprof -memprofile mem.pprof

# profile-contention records mutex and goroutine-blocking profiles of the
# stream transport specs, so ring-vs-channel synchronization cost is
# directly measurable; inspect with `go tool pprof mutex.pprof`.
profile-contention:
	$(GO) run ./cmd/soundbench -benchjson /dev/null -benchfilter Stream -mutexprofile mutex.pprof -blockprofile block.pprof
