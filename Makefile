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
#                      internal/lint.
#                      There is no lint-fix: violations are fixed by
#                      moving the code behind the obs layer or — when
#                      the invariant provably holds — annotating the
#                      line with //ntclint:allow <analyzer> <reason>.
#   make cover         test with coverage profile + per-function summary
#   make fault         fault-injection + robustness suite only (short
#                      mode): sealed-checkpoint integrity, quarantine,
#                      torn-write/ENOSPC recovery, single-flight warmup,
#                      cancellation semantics
#   make serve-smoke   request-serving DES suite in short mode: event
#                      loop, balancers, sketch, the diurnal-day policy
#                      claims, the serve/governor report shape and
#                      across-jobs determinism gate
#   make serve-cover   coverage floor gate (>= 80%) for internal/serve,
#                      internal/qos and internal/obs/timeseries
#   make report-smoke  telemetry pipeline in short mode: conservation
#                      audit, across-jobs CSV/counter determinism, the
#                      ntcsim report golden
#   make daemon-smoke  end-to-end ntcsimd check: boot the daemon, run the
#                      golden fig2 job over HTTP with SSE progress,
#                      require the report byte-identical to the CLI
#                      golden, require the resubmission to be a cache
#                      hit, require fig3 byte-identical to its golden
#                      with 4 sweep-memo hits on /metrics, and require
#                      SIGTERM to drain cleanly
#   make race          race-detector pass over every package
#   make fuzz-rng      run each internal/rng sampler-equivalence fuzz
#                      target (geometric guide vs inverse CDF, Zipf guide
#                      vs whole-table binary search, integer threshold vs
#                      Bool, precomputed uniform vs Uint64n) for 10 s
#   make bench         every root benchmark: sweep fan-out, observability
#                      overhead gates, serve DES and cluster-access kernels
#                      (the paper's numbers are pinned by the goldens;
#                      end-to-end performance is `bash cmd/ntcbench/run.sh`)
#   make bench-sweep   parallel-vs-serial sweep engine benchmarks only
#   make bench-obs     observability overhead benchmarks (metrics
#                      disabled-path + telemetry sampler), both gated <2%
#   make golden-update regenerate cmd/ntcsim golden files and the
#                      sealed-checkpoint hash after an intentional model
#                      or format change (review the diff!).
#                      Lint never rewrites sources, so golden outputs
#                      are unaffected by it.

GO ?= go

.PHONY: all build fmt-check vet lint test cover fault serve-smoke serve-cover report-smoke daemon-smoke race fuzz-rng bench bench-sweep bench-obs golden-update

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

fault:
	$(GO) test -short ./internal/faultfs
	$(GO) test -short -run 'Sealed' ./internal/sim
	$(GO) test -short -run 'Fingerprint|CacheKeyed|CorruptCheckpoint|StaleFingerprint|SaveFailure|SilentWrite|Quarantine|SingleFlight|StaleWarmupLock|CheckpointDir|Duplicate|Cancellation|StopsBetweenPoints|WarmupHonors' ./internal/core

serve-smoke:
	$(GO) test -short ./internal/serve ./internal/qos
	$(GO) test -short -run 'TestServeReport|TestDiurnalDayPolicyClaims|TestGovernorReacts|TestRaceToIdle' ./internal/experiments ./internal/serve

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
	$(GO) test -short -run 'TestTelemetry|TestReportGolden|TestEnergyGauges|TestCorePowerParts|TestSharedPowerParts' ./cmd/ntcsim ./internal/experiments ./internal/serve ./internal/governor

daemon-smoke:
	bash scripts/daemon_smoke.sh

race:
	$(GO) test -race ./...

fuzz-rng:
	$(GO) test -run xxx -fuzz '^FuzzGeometricMatchesInverseCDF$$' -fuzztime 10s ./internal/rng
	$(GO) test -run xxx -fuzz '^FuzzZipfMatchesBinarySearch$$' -fuzztime 10s ./internal/rng
	$(GO) test -run xxx -fuzz '^FuzzThresholdMatchesBool$$' -fuzztime 10s ./internal/rng
	$(GO) test -run xxx -fuzz '^FuzzUniformMatchesUint64n$$' -fuzztime 10s ./internal/rng

bench:
	$(GO) test -run xxx -bench . -benchmem .

bench-sweep:
	$(GO) test -run xxx -bench 'BenchmarkSweep(Many)?Parallel' .

bench-obs:
	$(GO) test -run xxx -bench BenchmarkObsOverhead .

golden-update:
	$(GO) test ./cmd/ntcsim -run TestGolden -update
	$(GO) test ./cmd/ntcsim -run TestMetricsGolden -update
	$(GO) test ./cmd/ntcsim -run TestReportGolden -update
	$(GO) test ./internal/sim -run TestSealedBytesGolden -update
	@git --no-pager diff --stat cmd/ntcsim/testdata/golden internal/sim/testdata || true
