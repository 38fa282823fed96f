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
# valid ones must re-encode bit-identically), the Mux operator's
# restore (arbitrary payloads never panic DecodeOperator, and an
# accepted one re-encodes to its own bytes), batch↔stream parity of
# windows and verdicts for every built-in window, point windows included
# (one key's disordered and hostile event times through a Mux operator
# give the batch windower's windows over the events it accepted, and
# its SOUND members CheckPlan.Run's verdicts over them), the template
# evaluation against its reference closure (referenceFn) run as a user
# constraint, both through a one-member lane's row loop at one seed,
# the shared-lane/per-check scoring parity, the
# branch-free in-range count against its short-circuit oracle, the
# closed-form level probability against its table bracket, the decision
# table's hinted threshold search against its binary-search oracle, the
# incomplete beta function and the Beta quantile against the CDF, the
# finiteness proof of random extracted windows against a recount of
# their points, the CSV and
# JSON series readers, the wire decoders, the NDJSON fast path against its
# encoding/json fallback, the JSON number scanner against
# strconv.ParseFloat, and the check registration grammar
# POST /checks exposes to untrusted clients (every accepted spec
# registers and builds an operator that survives an event and a
# Flush). Long
# exploratory runs: raise FUZZTIME or run `go test -fuzz` on one target
# directly.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzOperatorRestore -fuzztime=$(FUZZTIME) ./internal/checker
	$(GO) test -run='^$$' -fuzz=FuzzWindowReplay -fuzztime=$(FUZZTIME) ./internal/checker
	$(GO) test -run='^$$' -fuzz=FuzzKernelClosureParity -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzGroupScoreParity -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzCountIn -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzLevelProb -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSequentialBounds -fuzztime=$(FUZZTIME) ./internal/stat
	$(GO) test -run='^$$' -fuzz=FuzzRegIncBeta -fuzztime=$(FUZZTIME) ./internal/stat
	$(GO) test -run='^$$' -fuzz=FuzzBetaQuantileInverse -fuzztime=$(FUZZTIME) ./internal/stat
	$(GO) test -run='^$$' -fuzz=FuzzKernelScalarParity -fuzztime=$(FUZZTIME) ./internal/resample
	$(GO) test -run='^$$' -fuzz=FuzzExtractionSafe -fuzztime=$(FUZZTIME) ./internal/resample
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/series
	$(GO) test -run='^$$' -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./internal/series
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzNDJSONFastPath -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzParseNumber -fuzztime=$(FUZZTIME) ./internal/wire
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
# WL=all runs every workload of BENCHMARK.json (AB_WORKLOADS) in turn,
# each with its own PAIRS pairs, runs file and summary: the no-regression
# check over every workload in one command.
# The parent is commit REF exported under the git-ignored .bench_build/
# (a plain `git archive` tree: nothing to unregister if the run is
# killed, removed on exit either way); the change is the working tree.
# It reads each run's result line only, prints per end-to-end metric both
# sides' medians and quartiles and the change's win count
# (soundbench -ab) over the pairs whose two runs were both valid, and
# fails if a run printed no result or wrong outputs (a busy host) or a
# soundserve child outlived its run. Each run's whole record is kept
# beside the runs file as <workload>-seed<SEED>-<pair>-<side>.json: why
# a run was invalid (loadgen_invalid_slices,
# paced_backlog_drained_within_1s) is read there.
REF ?= HEAD
WL ?= suite-sliding
PAIRS ?= 10
SEED ?= 1
AB_WORKLOADS = frames-clearcut mc-borderline suite-sliding ndjson-manykeys
ab:
	@set -eu; \
	ref=$$(git rev-parse --short '$(REF)^{commit}'); \
	dir=.bench_build/ab/$$ref; \
	trap 'rm -rf "$$dir"' EXIT; trap 'exit 130' INT TERM; \
	rm -rf "$$dir"; mkdir -p "$$dir"; git archive "$$ref" | tar -x -C "$$dir"; \
	wls='$(WL)'; [ "$$wls" != all ] || wls='$(AB_WORKLOADS)'; \
	run() { \
		line=$$($(GO) -C "$$2/benchmark" run sound/benchmark --workload $$wl --seed $(SEED) | tail -n 1); \
		rec="$$2/benchmark/out/record-$$wl.json"; \
		if [ "$$rec" -nt "$$runs" ]; then cp "$$rec" ".bench_build/ab/$$wl-seed$(SEED)-$$i-$$1.json"; fi; \
		printf '%s %s\n' "$$1" "$$line" >> "$$runs"; \
	}; \
	st=0; \
	for wl in $$wls; do \
		runs=.bench_build/ab/$$wl-seed$(SEED).txt; : > "$$runs"; \
		for i in $$(seq 1 $(PAIRS)); do \
			echo "ab: pair $$i/$(PAIRS): $$wl, seed $(SEED), parent $$ref" >&2; \
			if [ $$((i % 2)) -eq 1 ]; then run parent "$$dir"; run change .; else run change .; run parent "$$dir"; fi; \
		done; \
		echo "ab: $$wl, seed $(SEED), parent $$ref, runs in $$runs"; \
		$(GO) run ./cmd/soundbench -ab "$$runs" || st=1; \
	done; \
	if pgrep -x soundserve >/dev/null; then \
		echo "ab: a soundserve process outlived the runs:" >&2; pgrep -xa soundserve >&2; st=1; \
	fi; \
	exit $$st

# loc prints the two line counts ROADMAP's Notes track: non-test Go
# lines outside benchmark/, and the internal/{checker,core,stream}
# subtotal.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/' | xargs cat | wc -l
	@git ls-files 'internal/checker/*.go' 'internal/core/*.go' 'internal/stream/*.go' | grep -v '_test.go$$' | xargs cat | wc -l
