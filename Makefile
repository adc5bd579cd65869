# Tier-1 verification: everything CI runs on every change. `make` or
# `make tier1` must pass before merging.

GO ?= go

.PHONY: tier1 build fmt vet vet-full test race race-scratch flake scvet lint witness fuzz-burst smoke-serve smoke-grid smoke-drain smoke-history smoke-tier smoke-mc chaos chaos-grid soak bench-test bench clean

tier1: build vet-full race race-scratch flake witness smoke-serve smoke-grid smoke-drain smoke-history smoke-tier smoke-mc chaos fuzz-burst bench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt: every Go file is gofmt-clean; the unformatted ones are listed.
fmt:
	@bad=$$(gofmt -l cmd internal examples bench); \
	if [ -n "$$bad" ]; then echo "not gofmt-clean:"; echo "$$bad"; exit 1; fi

# vet-full: the whole static-verification surface in one target — gofmt,
# the toolchain's vet, the repo's own scvet suite (SV001–SV007)
# self-applied, and Γ-membership linting of every registered protocol.
vet-full: fmt vet scvet lint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-scratch: the model checker's per-worker scratch stepping under the
# race detector, repeated — the fast-path-vs-slow-path differential tests
# (scratch step vs Product.Step, in-place replay vs chained Step, CopyFrom
# vs Clone for checker and observer) and the worker-count invariance of
# the state count (on its -short space).
race-scratch:
	$(GO) test -race -short -count=3 -run='TestScratchStepMatchesProductStep|TestReplayProductMatchesChainedStep|TestVerifyDeterministicStateCount' ./internal/mc
	$(GO) test -race -count=3 -run='TestCopyFromMatchesClone' ./internal/checker
	$(GO) test -race -count=3 -run='TestObserverCopyFromMatchesClone' ./internal/observer

# flake: the concurrency suites repeated under the race detector, so that
# a test that fails one run in ten fails here rather than in a later full
# run — the scserve session storm, concurrent sessions and graceful
# shutdown, and the grid kill and drain smokes. About a minute.
flake:
	$(GO) test -race -count=10 -run='TestMultiTenantStorm|TestServerConcurrentSessions|TestGracefulShutdown' ./internal/scserve
	$(GO) test -race -count=10 -run='TestGridSmokeKillBackend' ./internal/scgrid
	$(GO) test -race -count=10 -run='TestGridSmokeDrainBackend' ./internal/sctest

# scvet: the repo's own soundness analyzers (map order in encodings,
# clone completeness, lock discipline, wire-flag hygiene, verdict
# transparency, atomic/plain mixing) applied to the repo itself. Fails
# with a rule-tagged summary line on any finding.
scvet:
	$(GO) run ./cmd/scvet ./...

# lint: Γ-membership linting of every registered protocol.
lint:
	$(GO) run ./cmd/sccheck lint -all

# witness: the golden counterexample explanations for the built-in non-SC
# protocols, plus the minimizer's 1-minimality/certification contract.
# Regenerate goldens with: go test ./internal/witness -run Golden -update
# Then the cycle checker's own witness output: the hashed cycles of long
# directory streams, checked hop by hop against descriptor.Decode, the
# truncation of chains longer than the per-edge cap, and verdicts and
# witnesses on adjacency rows of one to three 64-bit words. Last, the
# hashed observer output (symbols, keys, Finish) of every registry target,
# which pins both ST-order serialization modes, and the queue-mode Finish
# order.
witness:
	$(GO) test -run='TestGoldenExplanations|TestMinimizedWitnessProperties' -count=1 ./internal/witness
	$(GO) test -run='TestWitnessCorpusGolden' -count=1 ./internal/checker
	$(GO) test -run='TestWitnessTruncatesLongChains|TestBitRowsAcrossWordBoundary' -count=1 ./internal/cycle
	$(GO) test -run='TestObserverStreamsGolden|TestQueueFinishEmitsEdgesFirst' -count=1 ./internal/observer

# fuzz-burst: a short CI-budget run of each fuzz target; regressions in
# the corpus replay in normal `go test`, this additionally explores.
FUZZTIME ?= 5s

fuzz-burst:
	$(GO) test -run='^$$' -fuzz=FuzzCheckerAgainstOffline -fuzztime=$(FUZZTIME) ./internal/checker
	$(GO) test -run='^$$' -fuzz=FuzzCopyFromMatchesClone -fuzztime=$(FUZZTIME) ./internal/checker
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshal -fuzztime=$(FUZZTIME) ./internal/descriptor
	$(GO) test -run='^$$' -fuzz=FuzzTrackerAndDecode -fuzztime=$(FUZZTIME) ./internal/descriptor
	$(GO) test -run='^$$' -fuzz=FuzzDecoder -fuzztime=$(FUZZTIME) ./internal/descriptor
	$(GO) test -run='^$$' -fuzz=FuzzFrameParser -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzServerConn -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzSessionMatchesLocal -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzResumeFrame -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzRetryClient -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzTierVerdictFrame -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzExploreFrame -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzGridSession -fuzztime=$(FUZZTIME) ./internal/scgrid
	$(GO) test -run='^$$' -fuzz=FuzzMinimizer -fuzztime=$(FUZZTIME) ./internal/witness
	$(GO) test -run='^$$' -fuzz=FuzzHistoryJSONL -fuzztime=$(FUZZTIME) ./internal/history
	$(GO) test -run='^$$' -fuzz=FuzzJSONLMatchesOracle -fuzztime=$(FUZZTIME) ./internal/history
	$(GO) test -run='^$$' -fuzz=FuzzLowerMatchesOracle -fuzztime=$(FUZZTIME) ./internal/history
	$(GO) test -run='^$$' -fuzz=FuzzHistoryEDN -fuzztime=$(FUZZTIME) ./internal/history

# smoke-serve: race-enabled client↔server smoke of the scserve session
# service — 64 concurrent sessions with exact verdict positions, plus the
# graceful-shutdown drain guarantees.
smoke-serve:
	$(GO) test -race -run='TestServerConcurrentSessions|TestGracefulShutdown' -count=1 ./internal/scserve

# smoke-grid: race-enabled smoke of the scgrid dispatch fabric — three
# backends, a campaign of mixed sessions, one backend hard-killed
# mid-campaign. Every delivered verdict must equal the local checker's.
# Deterministic and <5s.
smoke-grid:
	$(GO) test -race -run='TestGridSmokeKillBackend' -count=1 ./internal/scgrid

# smoke-drain: race-enabled smoke of zero-downtime live operations — a
# registry campaign through a three-backend grid with one backend drained
# mid-campaign over clean links. Drain may redirect sessions but must
# never cost a verdict or surface as an error. Deterministic and <5s.
smoke-drain:
	$(GO) test -race -run='TestGridSmokeDrainBackend' -count=1 ./internal/sctest

# smoke-history: race-enabled smoke of the operation-history pipeline —
# a deterministic campaign of generated replicated-KV histories where
# every anomaly-free history must be accepted and every injected anomaly
# (stale read, read-your-writes, partition ⊥, phantom read) must be
# rejected with its expected constraint code, adjudicated in-process AND
# through a three-backend scgrid fabric; plus the history exit-code
# contract (0/1/2) across local, -server, and -grid modes.
smoke-history:
	$(GO) test -race -run='TestHistorySmokeCampaign|TestHistoryRetryOpener' -count=1 ./internal/sctest
	$(GO) test -race -run='TestHistoryExitCodes' -count=1 ./cmd/sccheck

# smoke-tier: race-enabled smoke of the tiered-verdict surface — a tiered
# protocol campaign and a tiered history campaign through a three-backend
# scgrid fabric, every wire tier cross-checked against the identical local
# adjudication (one disagreement fails), storebuffer rejections required
# to land on the TSO tier and every injected anomaly on its kind's
# declared tier.
smoke-tier:
	$(GO) test -race -run='TestTierSmokeGrid' -count=1 ./internal/sctest

# smoke-mc: race-enabled smoke of the scmc distributed model-checking
# fabric — a 2-backend grid verification whose state count must equal the
# single-node checker's, a grid run on a buggy protocol that must report
# the violation, and a backend killed mid-exploration that must degrade
# to incomplete, never verified. Deterministic and <5s.
smoke-mc:
	$(GO) test -race -run='TestSmokeGrid$$|TestGridDetectsViolation|TestGridBackendDeathIsIncomplete' -count=1 ./internal/scmc

# chaos: the fault-tolerance acceptance test — the full protocol registry
# adjudicated through a fault-injected link (fragmented writes, short
# reads, latency spikes, forced connection cuts every ~20 KiB). Every
# verdict delivered through the chaos must equal the local checker's;
# faults may only degrade to errors, never to wrong answers. Deterministic
# and ~10s.
chaos:
	$(GO) test -run='TestChaosSoakRegistry' -count=1 ./internal/sctest

# chaos-grid: the multi-backend version of chaos — the registry campaign
# sharded across three fault-injected backends, one hard-killed and later
# restarted mid-campaign (asserting resumes, ejections, AND failovers
# occurred, with zero wrong verdicts), plus the rolling-restart soak that
# walks a drain → kill-while-draining → cold-restart cycle across the
# whole pool and demands an undrained full rejoin.
chaos-grid:
	$(GO) test -run='TestGridChaosSoakRegistry|TestGridRollingRestartSoak' -count=1 ./internal/sctest

# soak: the long randomized version of chaos (SOAK sets the duration).
SOAK ?= 2m

soak:
	SCSERVE_SOAK=$(SOAK) $(GO) test -run='TestChaosSoakRegistry' -count=1 -v -timeout=0 ./internal/sctest

# bench-test: the benchmark's own tests (bench/, a nested module that
# `go test ./...` does not reach), so an internal/ API change that breaks
# the benchmark fails here. About a second.
bench-test:
	cd bench && $(GO) test .

# bench: one end-to-end run of each benchmark workload through
# bench/run.sh (see bench/README.md). The workload list is kept by hand
# and must match the workloads BENCHMARK.json declares.
bench:
	for w in serve-long grid-short-tiered history-mixed verify-mc; do \
		bash bench/run.sh --workload $$w || exit 1; \
	done

clean:
	$(GO) clean ./...
