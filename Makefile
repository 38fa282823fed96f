GO ?= go

.PHONY: all build vet test race check benchmark-check bench bench-smoke ab fuzz serve-smoke loc

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

# bench-smoke executes every spec of the one micro-benchmark table
# (bench.Specs, run by BenchmarkSpecs) a fixed handful of times —
# correctness of the workloads, not timing. A number or a profile of
# one spec: go test -run '^$$' -bench 'Specs/<name>' [-cpu N
# -cpuprofile cpu.pprof -mutexprofile mutex.pprof ...] .
bench-smoke:
	$(GO) test -bench='^BenchmarkSpecs$$' -benchtime=10x -run=^$$ .

# fuzz smoke-runs the hostile-input fuzz targets for FUZZTIME each: the
# snapshot codec (corrupt checkpoints must error, never panic, and
# valid ones must re-encode bit-identically), the kernel/closure
# evaluation parity, the shared-lane/per-check scoring parity, the
# branch-free in-range count against its short-circuit oracle, the
# closed-form level probability against its table bracket, the CSV
# reader, the wire decoders, and the check registration grammar
# POST /checks exposes to untrusted clients. Long
# exploratory runs: raise FUZZTIME or run `go test -fuzz` on one target
# directly.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzKernelClosureParity -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzGroupScoreParity -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzCountIn -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzLevelProb -fuzztime=$(FUZZTIME) ./internal/core
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

# ab measures a claimed gain the way the choosing-metrics guide asks:
# PAIRS alternating parent/change runs of the standing benchmark's
# workload WL at seed SEED on this box, in the foreground, one at a time.
# The parent is commit REF exported under the git-ignored .bench_build/
# (a plain `git archive` tree: nothing to unregister if the run is
# killed, removed on exit either way); the change is the working tree.
# It reads each run's result line only, prints per end-to-end metric both
# sides' medians and quartiles and the change's win count
# (soundbench -ab) over the pairs whose two runs were both valid, and
# fails if a run printed no result or wrong outputs (a busy host) or a
# soundserve child outlived its run.
REF ?= HEAD
WL ?= suite-sliding
PAIRS ?= 10
SEED ?= 1
ab:
	@set -eu; \
	ref=$$(git rev-parse --short '$(REF)^{commit}'); \
	dir=.bench_build/ab/$$ref; runs=.bench_build/ab/$(WL)-seed$(SEED).txt; \
	trap 'rm -rf "$$dir"' EXIT; trap 'exit 130' INT TERM; \
	rm -rf "$$dir"; mkdir -p "$$dir"; git archive "$$ref" | tar -x -C "$$dir"; \
	: > "$$runs"; \
	run() { \
		line=$$($(GO) -C "$$2/benchmark" run sound/benchmark --workload $(WL) --seed $(SEED) | tail -n 1); \
		printf '%s %s\n' "$$1" "$$line" >> "$$runs"; \
	}; \
	for i in $$(seq 1 $(PAIRS)); do \
		echo "ab: pair $$i/$(PAIRS): $(WL), seed $(SEED), parent $$ref" >&2; \
		if [ $$((i % 2)) -eq 1 ]; then run parent "$$dir"; run change .; else run change .; run parent "$$dir"; fi; \
	done; \
	st=0; $(GO) run ./cmd/soundbench -ab "$$runs" || st=$$?; \
	if pgrep -x soundserve >/dev/null; then \
		echo "ab: a soundserve process outlived the runs:" >&2; pgrep -xa soundserve >&2; st=1; \
	fi; \
	exit $$st

# loc prints the two line counts ROADMAP item 4 tracks: non-test Go
# lines outside benchmark/, and the internal/{checker,core,stream}
# subtotal.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/' | xargs cat | wc -l
	@git ls-files 'internal/checker/*.go' 'internal/core/*.go' 'internal/stream/*.go' | grep -v '_test.go$$' | xargs cat | wc -l
