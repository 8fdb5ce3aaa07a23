# ntcsim build/test entry points.
#
#   make test          fmt-check + vet + lint + full test suite (tier-1 gate)
#   make fmt-check     fail if gofmt -l lists any .go file outside vendor/
#                      (and the hidden build directories)
#   make vet           standard go vet only
#   make lint          ntclint determinism/instrumentation analyzers
#                      (wallclock, globalrand, maprange, panicmsg,
#                      obsgate, units, floatorder, snapshotcheck,
#                      ctxloop) in one whole-module run; see
#                      internal/lint. snapshotcheck audits every
#                      Clone/clone method: one that copies its receiver
#                      whole (n := *c) must still name each pointer,
#                      slice, map, chan, func and interface field, so
#                      a checkpoint never silently shares state with
#                      the clusters restored from it.
#                      There is no lint-fix: violations are fixed by
#                      moving the code behind the obs layer or — when
#                      the invariant provably holds — annotating the
#                      line with //ntclint:allow <analyzer> <reason>.
#   make cover         test with coverage profile + per-function summary
#   make fault         cancellation suite only (short mode): a sweep
#                      cancelled before it starts returns its cause
#                      without warming, a memo hit honours a cancelled
#                      ctx, and a running sweep stops between points.
#                      fault, serve-smoke and report-smoke select tests
#                      by -run pattern and fail when an alternative of
#                      it matches no test
#   make serve-smoke   request-serving DES suite in short mode: event
#                      loop, balancers, sketch, the diurnal-day policy
#                      claims, the serve/governor report shape and
#                      across-jobs determinism gate
#   make serve-cover   coverage floor gate (>= 80%) for internal/serve,
#                      internal/qos and internal/obs/timeseries
#   make report-smoke  telemetry pipeline in short mode: conservation
#                      audit, across-jobs CSV/counter determinism, the
#                      ntcsim report golden; then request-traffic
#                      conservation (L1 misses = LLC reads, L1
#                      writebacks = LLC writes, LLC writebacks = DRAM
#                      writes) over detailed windows of every workload
#                      and over every window of a quick sweep, and the
#                      L1 half of it (L1 misses = warm reads, L1
#                      writebacks = warm writes) over functional warming
#                      of every workload
#   make daemon-smoke  end-to-end ntcsimd check: boot the daemon, run the
#                      golden fig2 job over HTTP with SSE progress,
#                      require the report byte-identical to the CLI
#                      golden, require the resubmission to be a cache
#                      hit, require fig3 byte-identical to its golden
#                      with 4 sweep-memo hits on /metrics, and require
#                      SIGTERM to drain cleanly
#   make race          race-detector pass over every package, then ten
#                      race runs of TestSweepManyBoundedByJobs, whose
#                      workloads share one flat worker pool (~6 s on a
#                      2-CPU host)
#   make fuzz-rng      run each internal/rng sampler-equivalence fuzz
#                      target (geometric guide vs inverse CDF, Zipf guide
#                      vs whole-table binary search, integer threshold vs
#                      Bool, precomputed uniform vs Uint64n) for 10 s
#   make fuzz          every fuzz-rng target, then the component fuzz
#                      targets (cache reference LRU and Clone, the
#                      core's issue-slot ring against its tagged
#                      reference, DRAM submit and address decode,
#                      workload generator invariants) for 10 s each
#   make bench         every root benchmark: sweep fan-out, observability
#                      overhead gates, serve DES and cluster-access kernels
#                      (the paper's numbers are pinned by the goldens;
#                      end-to-end performance is `bash cmd/ntcbench/run.sh`)
#   make bench-sweep   parallel-vs-serial sweep engine benchmarks only
#   make bench-obs     observability overhead benchmarks (metrics
#                      disabled-path + telemetry sampler), both gated <2%;
#                      the sampler's gate takes a median of per-round
#                      ratios, so it runs a fixed 40 rounds
#   make golden-update regenerate cmd/ntcsim golden files after an
#                      intentional model change (review the diff!).
#                      Lint never rewrites sources, so golden outputs
#                      are unaffected by it.

GO ?= go

.PHONY: all build fmt-check vet lint test cover fault serve-smoke serve-cover report-smoke daemon-smoke race fuzz-rng fuzz bench bench-sweep bench-obs golden-update

all: build

build:
	$(GO) build ./...

fmt-check:
	@out=$$(find . -path ./vendor -prune -o -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

lint:
	$(GO) build -o bin/ntclint ./cmd/ntclint
	bin/ntclint .

test: fmt-check vet lint
	$(GO) test ./...

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 30

# run_matching runs `go test -short -run $(1) $(2)`, but first fails if
# any |-separated alternative of $(1) lists no test in the packages $(2):
# go test reports ok when -run matches nothing, so a renamed test would
# otherwise empty a step silently.
define run_matching
	@for alt in $$(echo '$(1)' | tr '|' ' '); do \
		out=$$($(GO) test -list "$$alt" $(2)) || { echo "$$out"; exit 1; }; \
		echo "$$out" | grep -q -v -e '^ok' -e '^?' || \
			{ echo "-run alternative '$$alt' matches no test in $(2)"; exit 1; }; \
	done
	$(GO) test -short -run '$(1)' $(2)
endef

fault:
	$(call run_matching,StopsBetweenPoints|HonoursCancelledCtx|CancelledBeforeWarmup|CancelMergesStoppedPoints,./internal/core)

serve-smoke:
	$(GO) test -short ./internal/serve ./internal/qos
	$(call run_matching,TestServeReport|TestDiurnalDayPolicyClaims|TestGovernorReacts|TestRaceToIdle,./internal/experiments ./internal/serve)

# Coverage floor for the serving + telemetry path: the statement
# coverage of internal/serve, internal/qos and internal/obs/timeseries
# must stay at or above 80%.
serve-cover:
	@for pkg in ./internal/serve ./internal/qos ./internal/obs/timeseries; do \
		pct=$$($(GO) test -cover $$pkg | awk '{for (i=1; i<=NF; i++) if ($$i == "coverage:") {sub(/%.*/, "", $$(i+1)); print $$(i+1)}}'); \
		echo "$$pkg coverage: $$pct%"; \
		awk -v p="$$pct" 'BEGIN { exit !(p+0 < 80) }' && { echo "$$pkg coverage $$pct% below the 80% floor"; exit 1; } || true; \
	done

report-smoke:
	$(GO) test -short ./internal/obs/timeseries
	$(call run_matching,TestTelemetry|TestReportGolden|TestEnergyGauges|TestCorePowerAtBusyBounds|TestSharedPowerChargesStanding,./cmd/ntcsim ./internal/experiments ./internal/serve ./internal/governor)
	$(call run_matching,TestTrafficConserved|TestSweepWindowsConserveTraffic|TestFastForwardConservesTraffic,./internal/sim ./internal/core ./internal/cpu)

daemon-smoke:
	bash scripts/daemon_smoke.sh

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestSweepManyBoundedByJobs' ./internal/core

fuzz-rng:
	$(GO) test -run xxx -fuzz '^FuzzGeometricMatchesInverseCDF$$' -fuzztime 10s ./internal/rng
	$(GO) test -run xxx -fuzz '^FuzzZipfMatchesBinarySearch$$' -fuzztime 10s ./internal/rng
	$(GO) test -run xxx -fuzz '^FuzzThresholdMatchesBool$$' -fuzztime 10s ./internal/rng
	$(GO) test -run xxx -fuzz '^FuzzUniformMatchesUint64n$$' -fuzztime 10s ./internal/rng

fuzz: fuzz-rng
	$(GO) test -run xxx -fuzz '^FuzzAccessMatchesReference$$' -fuzztime 10s ./internal/cache
	$(GO) test -run xxx -fuzz '^FuzzIssueSlotMatchesRing$$' -fuzztime 10s ./internal/cpu
	$(GO) test -run xxx -fuzz '^FuzzSubmit$$' -fuzztime 10s ./internal/dram
	$(GO) test -run xxx -fuzz '^FuzzDecodeRoundTrip$$' -fuzztime 10s ./internal/dram
	$(GO) test -run xxx -fuzz '^FuzzGeneratorInvariants$$' -fuzztime 10s ./internal/workload

bench:
	$(GO) test -run xxx -bench . -benchmem .

bench-sweep:
	$(GO) test -run xxx -bench 'BenchmarkSweep(Many)?Parallel' .

bench-obs:
	$(GO) test -run xxx -bench '^BenchmarkObsOverhead$$' .
	$(GO) test -run xxx -bench '^BenchmarkObsOverheadSampler$$' -benchtime 40x .

golden-update:
	$(GO) test ./cmd/ntcsim -run TestGolden -update
	$(GO) test ./cmd/ntcsim -run TestMetricsGolden -update
	$(GO) test ./cmd/ntcsim -run TestReportGolden -update
	@git --no-pager diff --stat cmd/ntcsim/testdata/golden || true
