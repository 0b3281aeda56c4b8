# Standard verify recipe. CI (.github/workflows/ci.yml) calls these targets
# for vet, perfbench-test, bench-smoke, fuzz, metrics-check,
# report-check and serve-smoke, so the commands live in one place.

GO ?= go

.PHONY: all build vet lint test race perfbench-test bench-smoke metrics-check report-check serve-smoke fuzz verify

all: verify

build:
	$(GO) build ./...

# The benchmark module pins many internal APIs; vetting it makes deleting
# one of them fail here rather than at benchmark time.
vet:
	$(GO) vet ./...
	cd _perfbench && $(GO) vet ./...

# The lint tests alone: TestModuleTreeClean and TestLintTreeWallClockBudget
# share the module's one full-registry pass (every finding fails the first,
# a pass over 120 s the second; there is no baseline), the others check each rule on its fixture and the directive syntax. make test
# runs them too, so verify does not list lint. Data races are left to the
# race detector (make race, and CI's race-full job), hot-path allocations to
# the zero-alloc tests.
lint:
	$(GO) test -count=1 -run 'TestModuleTreeClean|TestLintTreeWallClockBudget|TestAnalyzerFixtures|TestMalformedIgnoreReported' ./internal/analysis

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark module's own tests, which ./... skips (underscore
# directory): the golden sweep and MCT digests, mix1 included, and the
# layer-split guards, the multi-core one among them.
perfbench-test:
	cd _perfbench && $(GO) test -count=1 ./...

# Quick end-to-end check that the mctbench binary still runs an experiment,
# printing with -json the same bytes as mct -job on the same experiment
# spec (one versioned report form for both paths), and that the warm-clone and batched evaluation micro-benchmarks still
# compile and run: the parallel-determinism tests exercise the engine, this
# exercises the CLI and the bench harness. The batch-width benchmark
# reports gups ns per lane-access at one lane and at a full batch; it is
# reported, not gated, since the figure is noisy on a shared host. The
# batched-step-loop benchmark is the streaming pipeline's allocation
# gate: its companion tests assert
# exactly 0 allocs/op at steady state, with one lane, with a lane per
# configuration of a full batch and with members sharing lanes. The
# sharing benchmark runs a stride-29 sweep's batches on zeusmp and gups
# and reports the exact lane-steps per configuration (30,000 when no lane
# is shared) and ns per configuration-access; it is reported, not gated.
# The controller benchmark replays a recorded
# gups miss stream into a warm NVM controller (ns per controller call); its
# companion test pins 0 allocs per call on the same stream. The
# eager-harvest benchmark runs Access + UselessPositions + NextEagerVictim
# on a warm zeusmp LLC (ns per access); its companion test pins 0 allocs.
# The sweep-cache round trip runs table4 twice over one -sweep-cache
# directory: the second run must load its sweep from disk and print a
# byte-identical report, and a third run into a fresh directory must write
# byte-identical entries.
bench-smoke:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/mctbench -experiment space -quick -quiet -json > "$$tmp/bench.json" && \
	echo '{"v":1,"kind":"experiment","experiment":"space","quick":true}' > "$$tmp/spec.json" && \
	$(GO) run ./cmd/mct -job "$$tmp/spec.json" > "$$tmp/job.json" && \
	cmp "$$tmp/bench.json" "$$tmp/job.json"
	./scripts/sweep_cache_smoke.sh
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluate(WarmClone|Batch|BatchWidth)$$' -benchtime 5x .
	$(GO) test -run '^$$' -bench 'BenchmarkMachineStep|Benchmark(Tiered)?BatchedStepLoop' -benchtime 200000x ./internal/sim
	$(GO) test -run 'TestStepSteadyStateAllocs|Test(Tiered)?BatchedStepLoopZeroAllocs|TestLaneFanOutZeroAllocs' -count 1 ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluateBatchSharing' -benchtime 1x ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkControllerBusy' -benchtime 200000x ./internal/nvm
	$(GO) test -run 'TestControllerBusyZeroAllocs' -count 1 ./internal/nvm
	$(GO) test -run '^$$' -bench 'BenchmarkEagerHarvest' -benchtime 200000x ./internal/cache
	$(GO) test -run 'TestEagerHarvestZeroAllocs' -count 1 ./internal/cache

# Determinism check on the metrics dump itself: the same run at -workers 1
# and -workers 4 must produce byte-identical stable dumps — once on the
# stock llc>nvm pipeline and once with the DRAM tier interposed (the
# dram.* metric family must be just as worker-count invariant). The dumps
# are committed, so the closing git diff also fails on any drift from them.
metrics-check:
	$(GO) run ./cmd/mct -benchmark lbm -insts 6000000 -workers 1 -metrics-out results/metrics-w1.json >/dev/null
	$(GO) run ./cmd/mct -benchmark lbm -insts 6000000 -workers 4 -metrics-out results/metrics-w4.json >/dev/null
	cmp results/metrics-w1.json results/metrics-w4.json
	$(GO) run ./cmd/mct -benchmark lbm -insts 6000000 -dram -workers 1 -metrics-out results/metrics-dram-w1.json >/dev/null
	$(GO) run ./cmd/mct -benchmark lbm -insts 6000000 -dram -workers 4 -metrics-out results/metrics-dram-w4.json >/dev/null
	cmp results/metrics-dram-w1.json results/metrics-dram-w4.json
	git diff --exit-code -- results/metrics-*.json

# Every experiment at quick scale on three benchmarks (~10 s on 2 vCPUs),
# regenerated and compared with the committed report: a change that moves
# any experiment's output fails here. The report is the same at any
# -workers.
report-check:
	$(GO) run ./cmd/mctbench -experiment all -quick -quiet -workers 2 -benchmarks lbm,zeusmp,gups -insts 2000000 > results/report_quick.txt
	git diff --exit-code -- results/report_quick.txt

# A bounded fuzz run of every trust-boundary decoder, about 60 s in all:
# the checkpoint reader, the sweep-result reader (artifact and resume
# prefix) and the HTTP job-spec decoder. Every input must decode or return
# an error, never panic. go test -fuzz takes one target per call; `make
# test` runs only their seeds (testdata/fuzz in each package).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 30s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSweepResult$$' -fuzztime 15s ./api
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJobSpec$$' -fuzztime 15s ./api

# End-to-end daemon smoke: boot mctd, prove CLI/daemon artifact parity over
# HTTP, then kill -9 mid-job and prove the restarted daemon resumes from the
# checkpoint with a byte-identical artifact.
serve-smoke:
	./scripts/serve_smoke.sh

verify: build vet test race perfbench-test bench-smoke metrics-check report-check serve-smoke
