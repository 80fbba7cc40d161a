# Convenience targets; everything is plain `go` underneath.

.PHONY: all ci build vet test test-short race fuzz-smoke chaos-race golden bench bench-smoke bench-serve loadtest soak watch-smoke scenarios-smoke scenarios experiments corpus serve watch clean

all: build vet test

# The full pre-merge gate: build, vet, every test without -short (the
# golden suite, the scenario smoke grid, the kill-anytime and load
# smokes included), the race detector, a short fuzz pass over every
# decoder, the chaos/fault-injection suite under race (the crash-only
# offnetd e2e included) and one-iteration benchmark smoke.
ci: build vet test race fuzz-smoke chaos-race bench-smoke

build:
	go build ./...

vet:
	go vet ./...

test:
	go test -count=1 ./...

test-short:
	go test -short ./...

race:
	go test -race -short ./...

# Smoke-fuzz every input decoder and the hypergiant matchers (header
# fingerprints against their strings.ToLower definition); go test
# allows one -fuzz target per invocation, hence one line per target.
FUZZTIME ?= 10s
fuzz-smoke:
	go test -run=^$$ -fuzz=FuzzCorpusRead -fuzztime=$(FUZZTIME) ./internal/corpus
	go test -run=^$$ -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/corpus
	go test -run=^$$ -fuzz=FuzzFootstoreDecode -fuzztime=$(FUZZTIME) ./internal/footstore
	go test -run=^$$ -fuzz=FuzzGenerationManifest -fuzztime=$(FUZZTIME) ./internal/footstore
	go test -run=^$$ -fuzz=FuzzReadRIB -fuzztime=$(FUZZTIME) ./internal/bgpsim
	go test -run=^$$ -fuzz=FuzzReadASRel -fuzztime=$(FUZZTIME) ./internal/astopo
	go test -run=^$$ -fuzz=FuzzReadOrgs -fuzztime=$(FUZZTIME) ./internal/astopo
	go test -run=^$$ -fuzz=FuzzParseIP -fuzztime=$(FUZZTIME) ./internal/netmodel
	go test -run=^$$ -fuzz=FuzzParsePrefix -fuzztime=$(FUZZTIME) ./internal/netmodel
	go test -run=^$$ -fuzz=FuzzMatchDomain -fuzztime=$(FUZZTIME) ./internal/hg
	go test -run=^$$ -fuzz=FuzzHeaderFingerprintMatches -fuzztime=$(FUZZTIME) ./internal/hg
	go test -run=^$$ -fuzz=FuzzFromLabel -fuzztime=$(FUZZTIME) ./internal/timeline
	go test -run=^$$ -fuzz=FuzzMetricsSnapshot -fuzztime=$(FUZZTIME) ./internal/obs
	go test -run=^$$ -fuzz=FuzzScenarioConfig -fuzztime=$(FUZZTIME) ./internal/scenarios

# The fault-injection suite under the race detector: the durable write
# primitive's step faults, a store never torn for readers mid-Save,
# corrupted-corpus ingestion, the three kill-anytime suites (offnetmap
# killed at checkpoint counts, the generation log and the real
# offnetwatchd killed at generation counts), parallel-runner
# determinism (including the mid-run cancellation regression), hot
# reload under load, the serving engine's cache/batch/reload/deadline/
# breaker races plus its goroutine-leak check, cut-short probe sweeps,
# the crash-only offnetd e2e (seeded loadgen traffic
# through the chaos transport and proxy into the real daemon while
# SIGHUPs alternate good and corrupt store files), and the chaos layer
# itself (reader, HTTP transport, TCP proxy, the crash harness).
chaos-race:
	go test -race ./internal/chaos ./internal/resilience ./internal/runstate ./internal/obs ./internal/durable
	go test -race -run 'TestChaos|TestTolerant|TestWriteNDJSONCrashSafe|TestCrashResume|TestGrowthJobs' ./internal/corpus ./cmd/offnetmap
	go test -race -run 'TestRunStudyConfig' ./internal/core
	go test -race -run 'TestHotReload|TestLoadShedding|TestPanicRecovery|TestHealth|TestRetryAfter|TestReloadGeneration|TestReloadFile|TestSmokeValidate|TestCache|TestBatch|TestConcurrentLoad|TestDeadline|TestBreaker|TestShed|TestGoroutineLeak' ./internal/offnetserve
	go test -race -run 'TestSweepCutShort' ./internal/probe
	go test -race -run 'TestGenLog|TestNewBuilderFrom|TestSave' ./internal/footstore
	go test -race -run 'TestWave' ./internal/waves
	go test -race -run 'TestWatchGenLog' ./internal/offnetserve
	go test -race -run 'TestKillAnytime' ./cmd/offnetwatchd
	go test -race -run 'TestSIGHUP|TestServerTimeout|TestGenlogMode' ./cmd/offnetd
	go test -race -run 'TestClassifyTransport|TestDriveClassifies' ./internal/loadgen

# The golden-regression suite: exact funnel metrics, growth series,
# and report tables of the seeded study — one batch per month, parallel
# (-jobs), and parallel streamed in 1- and 509-record chunks, all
# byte-identical.
# Refresh after an intentional methodology change with:
#   go test ./internal/core -run TestGolden -update
golden:
	go test -run 'TestGolden' ./internal/core

# Full benchmark pass over the paper experiments plus the per-stage
# pipeline benchmarks, rendered to BENCH_pipeline.json for trend diffs.
bench:
	go test -bench=. -benchmem -run='^$$' . ./internal/core | go run ./cmd/benchjson -out BENCH_pipeline.json

# One iteration of every benchmark — catches bit-rotted benchmark code
# in CI without paying for a measurement run. The serving benchmarks
# run -short (one iteration is a whole workload replay there). The
# allocation gate pins the streamed A.3 certificate pass to its
# post-streaming budget so an alloc regression fails CI, not just a
# benchmark trend diff.
bench-smoke:
	go test -bench=. -benchtime=1x -benchmem -run='^$$' . ./internal/core
	go test -bench=. -benchtime=1x -benchmem -short -run='^$$' ./internal/loadgen
	go test -count=1 -run 'TestA3CertAllocBudget' .

# The serving benchmarks behind BENCH_offnetd.json: 1M-lookup zipfian
# workloads through the in-process offnetd engine — cache-on vs
# cache-off, and batched vs single-request framing. -benchtime=1x
# because one iteration IS the full workload.
bench-serve:
	go test -bench=BenchmarkServe -benchtime=1x -benchmem -run='^$$' ./internal/loadgen | go run ./cmd/benchjson -out BENCH_offnetd.json

# Serving-stack load smoke: a short seeded loadgen run against the
# in-process offnetd engine must finish healthy (nonzero QPS, zero 5xx)
# and reproduce its trace hash. `make test` runs it too.
loadtest:
	go test -run 'TestLoadtestSmoke|TestTraceDeterminism' -count=1 ./cmd/loadgen

# The pre-release soak: the crash-only offnetd e2e (chaos traffic into
# the real daemon across 41 SIGHUP reloads, good and corrupt) run 20
# times; `make chaos-race` runs it once under -race. The exit status is
# the verdict.
soak:
	go test -count=20 -run 'TestSIGHUPAlternatingCorruptReloads' ./cmd/offnetd

# Kill-anytime smoke for the continuous-measurement pipeline: the real
# offnetwatchd is SIGKILLed at seeded generation counts until it fills
# the timeline grid, then scored for zero recovery artifacts,
# byte-identical state versus a never-killed run, and a forward-only
# served view (TestKillAnytime). The daemon envelope tests (flag
# wiring, farm waves, startup compaction) ride along. `make test` runs
# them too.
watch-smoke:
	go test -count=1 ./cmd/offnetwatchd

# Scenario-matrix smoke for CI: one representative adversarial cell
# per family (IPv6-only, hide-and-seek, cert reuse, flash trajectory,
# vendor outage) runs the full inference end to end and must land
# inside its precision/recall/coverage gates; the golden scenario cell
# and the workers-invariance pin ride along. `make test` runs them too.
scenarios-smoke:
	go test -count=1 -run 'TestSmokeGridPasses|TestMatrixDeterminism|TestGoldenCell' ./internal/scenarios

# The full pre-release scenario matrix: all 32 adversarial cells, run
# alongside `make soak` before cutting a release. Regenerates the
# committed results/SCENARIOS.json and SCENARIOS.md; byte-identical at
# any -workers setting.
scenarios:
	go run ./cmd/scenarios -grid full -workers 2 -out results/SCENARIOS.json -md results/SCENARIOS.md

# Regenerate every table/figure/validation at the default scale and
# refresh the committed results (plus CSV exports for plotting).
experiments:
	go run ./cmd/experiments -exp all -scale 0.1 -csv results/csv | tee results/experiments_seed1_scale0.1.txt

# Produce an on-disk corpus with the public-dataset stand-ins.
corpus:
	go run ./cmd/worldgen -out ./data -scale 0.05 -datasets

# Continuous-measurement demo: the wave daemon scans its loopback farm
# every 5s, committing each wave into ./data/genlog; run
#   go run ./cmd/offnetd -genlog ./data/genlog
# in another terminal to serve the live timeline.
watch:
	go run ./cmd/offnetwatchd -log ./data/genlog -farm -interval 5s -compact-keep 8

# End-to-end serving demo: generate a small world, freeze its inferred
# footprints into a store, and serve them on localhost:8097.
serve:
	go run ./cmd/worldgen -out ./data -scale 0.05
	go run ./cmd/offnetmap -corpus ./data -growth -store ./data/offnets.fst
	go run ./cmd/offnetd -store ./data/offnets.fst

clean:
	rm -rf ./data
