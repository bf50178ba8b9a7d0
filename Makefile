# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: build test race lint lint-fixtures lint-selftest fuzz-smoke fmt bench-submit drill-cluster drill-replication

build:
	$(GO) build ./...

# -vet=all mirrors CI: every vet analyzer runs over test builds too.
# cmd/hayatbench is a nested module, so ./... does not reach its tests.
test:
	$(GO) test -vet=all ./...
	cd cmd/hayatbench && $(GO) test ./...

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
# and require hayatlint to reject the tree with a determinism finding.
# A passing lint run here means the taint analysis is dead — fail loudly.
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
	echo "lint-selftest: OK — injected time.Now() rejected:"; \
	echo "$$out" | grep '\[determinism\]'

# Short fuzz pass over every native fuzz target; FUZZTIME=20s matches CI.
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
	fuzz ./internal/persist   FuzzLoadChip; \
	fuzz ./internal/persist   FuzzLoadResult; \
	fuzz ./internal/service   FuzzJournalReplay; \
	fuzz ./internal/service   FuzzDecodeConfig; \
	fuzz ./internal/service   FuzzDecodeBatchRequest; \
	fuzz ./internal/cluster   FuzzDecodeJobEnvelope; \
	fuzz ./internal/cluster   FuzzDecodeProbe; \
	fuzz ./internal/cluster   FuzzDecodeBatchEnvelope; \
	fuzz ./internal/store     FuzzDecodeStoreEnvelope; \
	fuzz ./internal/merkle    FuzzVerifyProof; \
	fuzz ./internal/merkle    FuzzParseHash; \
	fuzz ./internal/aging     FuzzTableLookup; \
	fuzz ./internal/aging     FuzzStateAdvance; \
	fuzz ./internal/core      FuzzPickCandidate; \
	fuzz ./internal/floorplan FuzzReadFLP; \
	fuzz ./internal/workload  FuzzReadProfileTSV

fmt:
	gofmt -w .

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

# Batch-vs-single submit throughput → committed JSON baseline. A fixed
# iteration count (not wall time) bounds how many jobs pile into the
# parked queue; speedups_vs_single in the output is the batch win.
SUBMIT_BENCHTIME ?= 30x
bench-submit:
	$(GO) test ./internal/service -run '^$$' -bench 'BenchmarkSubmitThroughput' \
		-benchtime $(SUBMIT_BENCHTIME) | $(GO) run ./cmd/benchjson > BENCH_PR6.json
	@cat BENCH_PR6.json
