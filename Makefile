# Tier-1 verification: everything CI runs on every change. `make` or
# `make tier1` must pass before merging.

GO ?= go

.PHONY: tier1 build vet vet-full test race race-scratch scvet lint witness fuzz-burst smoke-serve smoke-grid smoke-drain smoke-history smoke-tier smoke-mc chaos chaos-grid soak bench-serve bench-grid bench-hist bench-tier bench-mc bench-all clean

tier1: build vet-full race race-scratch witness smoke-serve smoke-grid smoke-drain smoke-history smoke-tier smoke-mc chaos fuzz-burst

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-full: the whole static-verification surface in one target — the
# toolchain's vet, the repo's own scvet suite (SV001–SV007) self-applied,
# and Γ-membership linting of every registered protocol.
vet-full: vet scvet lint

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
witness:
	$(GO) test -run='TestGoldenExplanations|TestMinimizedWitnessProperties' -count=1 ./internal/witness

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
	$(GO) test -run='^$$' -fuzz=FuzzResumeFrame -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzRetryClient -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzTierVerdictFrame -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzExploreFrame -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzMinimizer -fuzztime=$(FUZZTIME) ./internal/witness
	$(GO) test -run='^$$' -fuzz=FuzzHistoryJSONL -fuzztime=$(FUZZTIME) ./internal/history
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
	$(GO) test -race -run='TestHistorySmokeCampaign|TestHistoryRemoteChecker' -count=1 ./internal/sctest
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

# bench-serve: throughput of the scserve service on the loopback
# (sessions/s, symbols/s), written to BENCH_scserve.json.
BENCH_SESSIONS ?= 256
BENCH_WORKERS  ?= 64
BENCH_SYMBOLS  ?= 5000

bench-serve:
	$(GO) run ./cmd/scserve -bench -bench-sessions=$(BENCH_SESSIONS) \
		-bench-workers=$(BENCH_WORKERS) -bench-symbols=$(BENCH_SYMBOLS) \
		-bench-out=BENCH_scserve.json

# bench-grid: aggregate sessions/s through the scgrid fabric at 1, 2 and
# 4 backends over a simulated-latency loopback link, written to
# BENCH_scgrid.json. Exits non-zero if 4 backends fail to reach 2x the
# single-backend throughput.
bench-grid:
	$(GO) run ./cmd/scgrid -bench -bench-out=BENCH_scgrid.json

# bench-hist: end-to-end history-ingestion throughput (parse canonical
# JSONL → lower → check; histories/s and ops/s for a clean and an
# anomalous arm), written to BENCH_schist.json.
BENCH_HISTORIES ?= 2000
BENCH_HIST_OPS  ?= 200

bench-hist:
	$(GO) run ./cmd/sccheck history -bench -bench-histories=$(BENCH_HISTORIES) \
		-bench-ops=$(BENCH_HIST_OPS) -bench-out=BENCH_schist.json

# bench-tier: weaker-model adjudication throughput (one arm per ladder
# rung on its canonical litmus core, plus an end-to-end anomalous-history
# arm), written to BENCH_sctier.json. Every arm asserts its expected tier
# on every iteration, so the bench doubles as a tier-stability check.
BENCH_TIER_N ?= 2000

bench-tier:
	$(GO) run ./cmd/sccheck -tier -bench -bench-n=$(BENCH_TIER_N) \
		-bench-out=BENCH_sctier.json

# bench-mc: distributed exploration scaling at 1, 2 and 4 loopback
# backends under the simulated-latency methodology (one explore worker
# per backend, fixed per-expansion delay), written to BENCH_scverify.json.
# Every arm must reproduce the single-node state count exactly; exits
# non-zero if 4 backends fail to reach 2x the single-backend states/s.
bench-mc:
	$(GO) run ./cmd/scverify -bench -bench-out=BENCH_scverify.json

# bench-all: regenerate every committed BENCH_*.json artifact.
bench-all: bench-serve bench-grid bench-hist bench-tier bench-mc

clean:
	$(GO) clean ./...
