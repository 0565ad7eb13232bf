GO ?= go

.PHONY: check fmtcheck vet build test race bench bins clean cachecheck docscheck kernelcheck tracecheck servecheck chaoscheck pipelinecheck replancheck deflakecheck obscheck fuzzcheck covercheck benchdiff

## check: full verification gate — gofmt, vet, docs lint, build, race-enabled
## tests with a coverage profile, and the ratcheted coverage gate
check: fmtcheck vet docscheck build race covercheck

## docscheck: every package must carry a package-level doc comment
docscheck:
	$(GO) run ./tools/docscheck

## fmtcheck: fail when any file needs gofmt
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then 		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 -coverprofile=coverage.out -covermode=atomic ./...

## covercheck: parse coverage.out (written by `make race`), print the
## per-package statement-coverage table, and fail when total coverage drops
## below the checked-in baseline (tools/covercheck/baseline.txt). The
## baseline only ratchets up: PRs that add coverage bump it.
covercheck:
	$(GO) run ./tools/covercheck coverage.out

bench:
	$(GO) test -bench=. -benchmem -run NONE ./...

## cachecheck: differential block-cache tests under the race detector plus
## the bench smoke that records per-iteration wire bytes in BENCH_cache.json
cachecheck:
	$(GO) test -race -count=1 -run 'Cache' ./...
	$(GO) run ./cmd/fuseme-bench -exp cache -scale 0.25 -out BENCH_cache.json

## kernelcheck: kernel-pool and thread-invariance tests under the race
## detector plus the bench that records kernel timings in BENCH_kernels.json
kernelcheck:
	$(GO) test -race -count=1 ./internal/parallel/
	$(GO) test -race -count=1 -run 'Kernel|MatMul|AVX' ./internal/matrix/ ./internal/rt/
	$(GO) run ./cmd/fuseme-bench -exp kernels -out BENCH_kernels.json

## tracecheck: distributed tracing, skew correction, span parity and flight
## recorder tests under the race detector
tracecheck:
	$(GO) test -race -count=1 -run 'Trace|Span|Skew|Align|Clock|Flight|Obs' ./internal/obs/ ./internal/rt/ ./internal/rt/remote/ ./internal/exec/ .

## servecheck: multi-tenant serving soak under the race detector — one warm
## instance, eight concurrent tenants over sim and TCP, every response
## bit-identical to a serial run — plus the admission/plan-cache suites and
## the bench that records throughput and tail latency in BENCH_serve.json
servecheck:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/sched/ ./internal/plancache/
	$(GO) test -race -count=1 -run 'PlanCache|QueryBusy|CloseIdempotent|SharedRegistry' .
	$(GO) run ./cmd/fuseme-bench -exp serve -scale 0.5 -out BENCH_serve.json

## chaoscheck: elastic-membership suites under the race detector — the
## membership state machine and residency ledger, join/leave/suspect-probe
## over real TCP, and the chaos soak (kill + add workers mid-GNMF, results
## matched against an undisturbed run) — plus the bench that records
## kill-recovery time and wire bytes for CacheReplicas 1 vs 2 in
## BENCH_chaos.json
chaoscheck:
	$(GO) test -race -count=1 ./internal/membership/ ./internal/chaos/
	$(GO) test -race -count=1 -run 'Elastic|Suspect|DeathRoutes|Replication|Resize' ./internal/rt/remote/ ./internal/sched/
	$(GO) run ./cmd/fuseme-bench -exp chaos -scale 0.25 -out BENCH_chaos.json

## pipelinecheck: pipelined-execution suites under the race detector — the
## ordered stage reducer, the steal-protocol property tests, prefetch
## admission, differential bit-identity (pipelined vs barrier, sim vs TCP),
## prefetch/steal counter conformance, and the overlap regression gate —
## plus the bench that records barrier-vs-pipelined overlap accounting in
## BENCH_pipeline.json
pipelinecheck:
	$(GO) test -race -count=1 ./internal/prefetch/
	$(GO) test -race -count=1 -run 'Pipeline|Steal|StageReducer|Prefetch|Straggler' ./internal/exec/ ./internal/rt/ ./internal/rt/remote/ ./internal/experiments/
	$(GO) run ./cmd/fuseme-bench -exp pipeline -out BENCH_pipeline.json

## replancheck: feedback-loop suites under the race detector — calibration
## store round-trip/lookup-fallback/convergence, divergence windows and the
## bit-safe re-cost (R pinned, aggregation-rooted operators untouched),
## replan-on/off bit-identity for GNMF and the AutoEncoder over sim and TCP,
## plan-cache invalidation on calibration-generation bumps, and the replan
## regression gate (iterations 2+ must cost no more than iteration 1 and the
## steady-state plan must differ and improve) — plus the bench that records
## per-iteration plans, costs and learned bandwidths in BENCH_replan.json
replancheck:
	$(GO) test -race -count=1 -run 'Calib|Replan|Adaptive|Resident' ./internal/obs/ ./internal/core/ ./internal/workloads/ ./internal/experiments/ .
	$(GO) run ./cmd/fuseme-bench -exp replan -out BENCH_replan.json

## deflakecheck: the membership/chaos suites that used to sleep-poll now
## block on watch channels; run them 10x under the race detector to prove
## they are event-driven, not timing-lucky. The exact sim/TCP prefetch and
## journal conformance pair runs 50x: its counters must not depend on task
## completion order
deflakecheck:
	$(GO) test -race -count=10 ./internal/membership/
	$(GO) test -race -count=10 -run 'Elastic|Suspect|DeathRoutes|Membership' ./internal/rt/remote/
	$(GO) test -race -count=2 ./internal/chaos/
	$(GO) test -race -count=50 -run 'TestRuntimeConformance(Journal|Pipeline)' ./internal/rt/

## obscheck: per-query observability battery under the race detector — the
## journal/skew-detector/quantile unit suites, the sim-vs-TCP journal
## conformance test (same GNMF run, identical normalized event sequences),
## the /v1/queries introspection endpoints (served flights must equal the
## flight recorder's records exactly) with the concurrent-status soak, the
## session journal lifecycle + overhead gate, the injected-straggler chaos
## test, the fuseme-top dashboard client, and the single stage record: the
## RecordStage fan-out, predictions on every record without a calibration
## aggregate, bounded calibration state across 500 queries, and the offline
## report equal to the live one
obscheck:
	$(GO) test -race -count=1 -run 'Journal|Skew|Slowdown|Quantile|Snapshot|ServeMetrics|DebugStats|Pprof|RecordStage' ./internal/obs/
	$(GO) test -race -count=1 -run TestRuntimeConformanceJournal ./internal/rt/
	$(GO) test -race -count=1 -run TestRunObsStageRecordsCarryPredictions ./internal/core/
	$(GO) test -race -count=1 -run 'TestQueryIntrospection|TestQueriesEndpointErrors|TestStatusUnderConcurrentQueries' ./internal/serve/
	$(GO) test -race -count=1 -run TestStragglerDetection ./internal/chaos/
	$(GO) test -race -count=1 -run 'TestSessionJournal|TestSetQueryLog|TestSessionSkewDetector|TestJournalOverheadGate|TestCalibrationBoundedAcrossQueries|TestCalibrationOfflineEqualsLive' .
	$(GO) test -race -count=1 ./cmd/fuseme-top/

## fuzzcheck: fuzz the TCP frame reader for 15s — round trips with
## writeFrame, no panic on arbitrary bytes, an error on every truncation
fuzzcheck:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 15s ./internal/rt/remote/

## benchdiff: regenerate the bench documents into /tmp and diff them against
## the checked-in BENCH_*.json (non-blocking: timings vary across machines)
benchdiff:
	$(GO) run ./cmd/fuseme-bench -exp cache -scale 0.25 -out /tmp/BENCH_cache.json
	$(GO) run ./cmd/fuseme-bench -exp kernels -out /tmp/BENCH_kernels.json
	$(GO) run ./cmd/fuseme-bench -exp serve -scale 0.5 -out /tmp/BENCH_serve.json
	$(GO) run ./cmd/fuseme-bench -exp chaos -scale 0.25 -out /tmp/BENCH_chaos.json
	$(GO) run ./cmd/fuseme-bench -exp pipeline -out /tmp/BENCH_pipeline.json
	$(GO) run ./cmd/fuseme-bench -exp replan -out /tmp/BENCH_replan.json
	-$(GO) run ./tools/benchdiff -quiet BENCH_cache.json /tmp/BENCH_cache.json
	-$(GO) run ./tools/benchdiff -quiet BENCH_kernels.json /tmp/BENCH_kernels.json
	-$(GO) run ./tools/benchdiff -quiet BENCH_serve.json /tmp/BENCH_serve.json
	-$(GO) run ./tools/benchdiff -quiet BENCH_chaos.json /tmp/BENCH_chaos.json
	-$(GO) run ./tools/benchdiff -quiet BENCH_pipeline.json /tmp/BENCH_pipeline.json
	-$(GO) run ./tools/benchdiff -quiet BENCH_replan.json /tmp/BENCH_replan.json

## bins: build the command-line binaries into ./bin
bins:
	mkdir -p bin
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin coverage.out
