# Convenience targets; everything is plain `go` underneath.

.PHONY: all ci build vet test test-short race fuzz-smoke chaos-race golden bench bench-smoke bench-serve loadtest soak watch-smoke scenarios-smoke scenarios experiments results-check corpus serve watch clean

all: build vet test

# The full pre-merge gate: build, vet, every test without -short (the
# golden suite, the scenario smoke grid, the kill-anytime and load
# smokes included), every test -short keeps under the race detector
# (the fault-injection suites and the crash-only offnetd e2e included),
# the crash suites -short skips under the race detector too, a short
# fuzz pass over every decoder, one-iteration benchmark smoke, and a
# byte-for-byte regeneration of the committed results.
ci: build vet test race fuzz-smoke chaos-race bench-smoke results-check

build:
	go build ./...

# go vet, then gofmt: any file gofmt would rewrite fails the target
# and is named.
vet:
	go vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: unformatted Go files:"; echo "$$unformatted"; exit 1; fi

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
	go test -run=^$$ -fuzz=FuzzReadOrgs -fuzztime=$(FUZZTIME) ./internal/astopo
	go test -run=^$$ -fuzz=FuzzParseIP -fuzztime=$(FUZZTIME) ./internal/netmodel
	go test -run=^$$ -fuzz=FuzzParsePrefix -fuzztime=$(FUZZTIME) ./internal/netmodel
	go test -run=^$$ -fuzz=FuzzMatchDomain -fuzztime=$(FUZZTIME) ./internal/hg
	go test -run=^$$ -fuzz=FuzzHeaderFingerprintMatches -fuzztime=$(FUZZTIME) ./internal/hg
	go test -run=^$$ -fuzz=FuzzFromLabel -fuzztime=$(FUZZTIME) ./internal/timeline
	go test -run=^$$ -fuzz=FuzzMetricsSnapshot -fuzztime=$(FUZZTIME) ./internal/obs
	go test -run=^$$ -fuzz=FuzzScenarioConfig -fuzztime=$(FUZZTIME) ./internal/scenarios

# The crash and damaged-corpus suites that -short skips, under the race
# detector: offnetmap killed at checkpoint counts (also under chaos, and
# at any -jobs) and dropping damaged months at -jobs 2, the generation
# log and the real offnetwatchd killed at generation counts.
# Every other fault-injection test (the durable write primitive, torn
# stores, corrupted corpora, reload under load, the serving engine's
# races, cut-short sweeps, the crash-only offnetd e2e and the chaos
# layer itself) is not short-skipped, so `make race` already runs it
# under -race.
chaos-race:
	go test -race -run 'TestChaosDegradedGrowthRun|TestCrashResume|TestGrowthJobsByteIdentical|TestGrowthDamagedMonths' ./cmd/offnetmap
	go test -race -run 'TestGenLogCrashEquivalence' ./internal/footstore
	go test -race -run 'TestKillAnytime' ./cmd/offnetwatchd

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
# benchmark trend diff. The end-to-end benchmark is its own module
# (bench/go.mod), which the root ./... leaves out: the last two lines
# vet it and run its tests, the schema and statistics tests and a
# smoke run of every workload on three snapshots.
bench-smoke:
	go test -bench=. -benchtime=1x -benchmem -run='^$$' . ./internal/core ./internal/certmodel ./internal/footstore ./internal/netmodel ./internal/worldsim
	go test -bench=. -benchtime=1x -benchmem -short -run='^$$' ./internal/loadgen
	go test -count=1 -run 'TestA3CertAllocBudget' .
	go -C bench vet ./...
	go -C bench test -count=1 ./...

# The serving benchmarks behind BENCH_offnetd.json: 1M-lookup zipfian
# workloads through the in-process offnetd engine — cache-on vs
# cache-off, and batched vs single-request framing. -benchtime=1x
# because one iteration IS the full workload; -count=5 so each row is
# the median of five runs, with ns/op's min and max beside it.
bench-serve:
	go test -bench=BenchmarkServe -benchtime=1x -count=5 -benchmem -run='^$$' ./internal/loadgen | go run ./cmd/benchjson -out BENCH_offnetd.json

# Serving-stack load smoke: a short seeded loadgen run against the
# in-process offnetd engine must finish healthy (nonzero QPS, zero 5xx)
# and reproduce its trace hash. `make test` runs it too.
loadtest:
	go test -run 'TestLoadtestSmoke|TestTraceDeterminism' -count=1 ./cmd/loadgen

# The pre-release soak: the crash-only offnetd e2e (chaos traffic into
# the real daemon across 41 SIGHUP reloads, good and corrupt) run 20
# times; `make race` runs it once under -race. The exit status is the
# verdict.
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

# Every committed result regenerates byte for byte: the experiments
# text and CSVs (`make experiments`) and the full scenario matrix
# (`make scenarios`) are regenerated into a temp dir and diffed against
# results/, and diff names each file that differs. About 2 min on 2
# vCPUs. table3_seed1_scale1.0.txt is a 13-minute full-scale run and
# stays a manual regeneration (EXPERIMENTS.md).
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/experiments -exp all -scale 0.1 -csv "$$tmp/csv" >"$$tmp/experiments_seed1_scale0.1.txt" && \
	go run ./cmd/scenarios -grid full -workers 2 -q -out "$$tmp/SCENARIOS.json" -md "$$tmp/SCENARIOS.md" && \
	diff -r -x table3_seed1_scale1.0.txt results "$$tmp"

# Produce an on-disk corpus with the public-dataset stand-ins.
corpus:
	go run ./cmd/worldgen -out ./data -scale 0.05 -datasets

# Continuous-measurement demo: the wave daemon scans its loopback farm
# every 5s, committing each wave into ./data/genlog; run
#   go run ./cmd/offnetd -genlog ./data/genlog
# in another terminal to serve the live timeline.
watch:
	go run ./cmd/offnetwatchd -log ./data/genlog -interval 5s -compact-keep 8

# End-to-end serving demo: generate a small world, freeze its inferred
# footprints into a store, and serve them on localhost:8097.
serve:
	go run ./cmd/worldgen -out ./data -scale 0.05
	go run ./cmd/offnetmap -corpus ./data -growth -store ./data/offnets.fst
	go run ./cmd/offnetd -store ./data/offnets.fst

clean:
	rm -rf ./data
