# Developer entry points. CI (.github/workflows/ci.yml) calls the test,
# race, fuzz-smoke, lint-selftest, drill, bench-submit, bench-overhead,
# bench-setup, bench-overload, bench-answer and bench-epoch targets, so
# each of those commands, the fuzz-target list included, is written only
# here.

GO ?= go

.PHONY: build test race lint lint-fixtures lint-selftest fuzz-smoke fmt bench-submit bench-overhead bench-setup bench-overload bench-answer bench-epoch drill-cluster drill-replication campaign

build:
	$(GO) build ./...

# -vet=all mirrors CI: every vet analyzer runs over test builds too.
# cmd/hayatbench is a nested module that ./... does not enter; the root
# TestBenchmarkModuleTests runs its tests.
test:
	$(GO) test -vet=all ./...

race:
	$(GO) test -race ./...

# hayatlint enforces the project invariants (see DESIGN.md §9); gofmt -l
# keeps the tree formatted. Both fail the target on any finding.
lint:
	$(GO) run ./cmd/hayatlint ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Golden-fixture suite only: -short skips the whole-module real-tree
# lint, so a rule edit round-trips in seconds.
lint-fixtures:
	$(GO) test -short ./internal/lint

# Negative self-test: inject a reachable time.Now() into internal/sim
# and require hayatlint to reject the tree with a determinism finding,
# and — because no command calls the injected entry point — with a
# reachability finding for it. A passing lint run here means the taint
# analysis or the reachability roots are dead — fail loudly.
SELFTEST_FILE := internal/sim/zz_lint_selftest_injected.go
lint-selftest:
	@cp internal/lint/testdata/selftest/injected.go.txt $(SELFTEST_FILE); \
	trap 'rm -f $(SELFTEST_FILE)' EXIT; \
	out="$$($(GO) run ./cmd/hayatlint ./... 2>&1)"; status=$$?; \
	if [ $$status -eq 0 ]; then \
		echo "lint-selftest: FAIL — hayatlint accepted an injected time.Now() in internal/sim"; exit 1; \
	fi; \
	if ! echo "$$out" | grep -q '\[determinism\].*time\.Now'; then \
		echo "lint-selftest: FAIL — hayatlint failed without a determinism/time.Now finding:"; echo "$$out"; exit 1; \
	fi; \
	if ! echo "$$out" | grep -q '\[reachability\].*RunLintSelfTestInjected'; then \
		echo "lint-selftest: FAIL — hayatlint failed without a reachability finding for the unreached injection:"; echo "$$out"; exit 1; \
	fi; \
	echo "lint-selftest: OK — injected time.Now() rejected and its unreached entry point reported:"; \
	echo "$$out" | grep '\[determinism\]\|\[reachability\]'

# Short fuzz pass over every native fuzz target; CI runs it at the
# default FUZZTIME.
FUZZTIME ?= 20s
fuzz-smoke:
	@set -eu; \
	fuzz() { \
		echo "=== $$1 $$2 ==="; \
		$(GO) test "$$1" -run='^$$' -fuzz="^$$2\$$" -fuzztime=$(FUZZTIME); \
	}; \
	fuzz .                    FuzzParsePolicy; \
	fuzz .                    FuzzRunLifetime; \
	fuzz ./internal/persist   FuzzDecodeFrame; \
	fuzz ./internal/persist   FuzzDecodeFrameLine; \
	fuzz ./internal/persist   FuzzLoadResult; \
	fuzz ./internal/service   FuzzJournalReplay; \
	fuzz ./internal/service   FuzzDecodeConfig; \
	fuzz ./internal/service   FuzzDecodeBatchRequest; \
	fuzz ./internal/service   FuzzStatusRender; \
	fuzz ./internal/cluster   FuzzDecodeJobEnvelope; \
	fuzz ./internal/cluster   FuzzDecodeProbe; \
	fuzz ./internal/cluster   FuzzDecodeBatchEnvelope; \
	fuzz ./internal/store     FuzzDecodeStoreEnvelope; \
	fuzz ./internal/merkle    FuzzVerifyProof; \
	fuzz ./internal/merkle    FuzzParseHash; \
	fuzz ./internal/merkle    FuzzAuditReplay; \
	fuzz ./internal/aging     FuzzTableLookup; \
	fuzz ./internal/aging     FuzzStateAdvance; \
	fuzz ./internal/aging     FuzzAgingTableFill; \
	fuzz ./internal/aging     FuzzEffectiveAge; \
	fuzz ./internal/thermpredict FuzzAdmitBound; \
	fuzz ./internal/thermal   FuzzModalTransforms; \
	fuzz ./internal/numeric   FuzzMulMat; \
	fuzz ./internal/core      FuzzPickCandidate

fmt:
	gofmt -w .

# The paper's full evaluation campaign (EXPERIMENTS.md): regenerates
# experiments_output.txt and figures/, the two artifacts
# cmd/experiments' TestCampaignMatchesPinnedArtifacts pins byte for byte.
campaign:
	$(GO) run ./cmd/experiments -fig all -chips 25 -years 10 -svg figures > experiments_output.txt

# The kill-a-peer drill: 3 real hayatd nodes, one SIGKILLed while it
# holds unfinished population chips, result still byte-identical with a
# verifying Merkle proof and zero client-visible 5xx.
drill-cluster:
	$(GO) test -race -run '^TestClusterKillPeerDrill$$' -v ./internal/service

# The replicated-store drill: 3 real hayatd nodes, a key's owner
# SIGKILLed after replication, the result still served byte-identical
# from a replica with a verifying Merkle proof and zero client-visible
# 5xx; the restarted owner is read-repaired by the anti-entropy sweep
# and replication debt returns to zero.
drill-replication:
	$(GO) test -race -run '^TestReplicationKillOwnerDrill$$' -v ./internal/service

# Batch-vs-single submit throughput as JSON on stdout; it writes no file.
# A fixed iteration count (not wall time) bounds how many jobs pile into
# the parked queue; speedups_vs_single in the output is the batch win.
# Refreshing the committed baseline is a deliberate
# `make -s bench-submit > BENCH_PR6.json` at the default 30x.
SUBMIT_BENCHTIME ?= 30x
bench-submit:
	@$(GO) test ./internal/service -run '^$$' -bench 'BenchmarkSubmitThroughput' \
		-benchtime $(SUBMIT_BENCHTIME) | $(GO) run ./cmd/benchjson

# Section VI overhead (EXPERIMENTS.md E10): one health estimate, one
# thermal prediction, one whole-mix decision and one application-arrival
# decision on chip 1's 32-thread mix. These root benchmarks are E10's
# only source.
OVERHEAD_BENCHTIME ?= 1s
bench-overhead:
	$(GO) test -run '^$$' -bench 'EstimateNextHealth|PredictTemperature|WorstCaseDecision|ArrivalDecision' \
		-benchtime $(OVERHEAD_BENCHTIME) .

# Set-up (ROADMAP item 8) at 8×8 and 16×16: one platform on a fresh
# artifact cache, the cache's only miss (BenchmarkNewSystem), one fresh
# chip on a warm cache (BenchmarkNewChip), and the aging-table build that
# used to take most of a chip (BenchmarkAgingTableBuild).
SETUP_BENCHTIME ?= 1s
bench-setup:
	$(GO) test -run '^$$' -bench '^Benchmark(NewSystem|NewChip|AgingTableBuild)$$' \
		-benchtime $(SETUP_BENCHTIME) .

# Overload (DESIGN.md §8): two workers offered far more 8×8 lifetimes
# than they can run, at queue depths 16 and 64; goodput, p50/p99 latency
# of admitted jobs and the fewest jobs any client finished. One iteration
# is a 3-s fill and a 10-s window, so the default benchtime runs each
# depth once.
OVERLOAD_BENCHTIME ?= 1s
bench-overload:
	$(GO) test ./internal/service -run '^$$' -bench '^BenchmarkOverloadMix$$' \
		-benchtime $(OVERLOAD_BENCHTIME)

# Read path (DESIGN.md §11): one cached default 10-year lifetime answered
# through hayatd's HTTP handler with wait, in µs and allocations per
# answer.
ANSWER_BENCHTIME ?= 1s
bench-answer:
	$(GO) test ./internal/service -run '^$$' -bench '^BenchmarkCachedAnswer$$' -benchmem \
		-benchtime $(ANSWER_BENCHTIME)

# Epoch kernels (DESIGN.md §15, §19, §21, §22): one steady-state epoch of
# the default 8×8 chip under Hayat and under VAA, one implicit-Euler
# thermal step, each in µs, bytes and allocations per operation, and
# numeric.MulMat's AVX2 and Go kernels (the AVX2 one where the CPU has it)
# on one 8×8 DCT stage and on Predict's 1×64·64×64 product. CI's
# one-iteration smoke step (EPOCH_BENCHTIME=1x) runs all four.
EPOCH_BENCHTIME ?= 1s
bench-epoch:
	$(GO) test ./internal/sim -run '^$$' -bench '^BenchmarkSingleChipEpoch(VAA)?$$' -benchmem \
		-benchtime $(EPOCH_BENCHTIME)
	$(GO) test . -run '^$$' -bench '^BenchmarkThermalTransientStep$$' -benchmem \
		-benchtime $(EPOCH_BENCHTIME)
	$(GO) test ./internal/numeric -run '^$$' -bench '^BenchmarkMulMat$$' -benchmem \
		-benchtime $(EPOCH_BENCHTIME)
