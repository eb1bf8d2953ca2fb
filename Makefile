# Flash reproduction build/verify targets. `make check` is the
# pre-commit gate: vet, the flashvet analyzer suite, and the race
# detector (with and without the flashcheck invariant layer).

GO ?= go
FLASHVET ?= bin/flashvet

.PHONY: build test vet lint lint-json flashvet race race-hot pred-race checkstrict bench bench-record check fuzz chaos chaos-random ckpt-chaos shard-chaos soak apicheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Build the project-specific analyzer suite (bddref, gcroot, obshook,
# ctxfeed, lockbdd, lockorder, snapleak, nodeprecated, atomicmix,
# errwrapped, stealsafe) as a `go vet` vettool.
flashvet:
	$(GO) build -o $(FLASHVET) ./cmd/flashvet

# Run the flashvet analyzers over every compilation unit in the module.
# Fails fast with a clear message if the vettool has not been built.
lint: flashvet
	@test -x $(FLASHVET) || { echo "error: flashvet not built; run 'make flashvet' first (expected at $(FLASHVET))" >&2; exit 1; }
	$(GO) vet -vettool=$(FLASHVET) ./...

# Machine-readable diagnostics: the standalone driver over every module
# package, as a JSON array (suppressed findings included, marked).
lint-json: flashvet
	$(FLASHVET) -json

# Full suite under the race detector. The explicit -timeout headroom is
# for slow single-core hosts: the root package's differential matrix
# (predicate modes × budgets × generators) runs close to the default
# 10m there.
race:
	$(GO) test -race -timeout 30m ./...

# Full suite with the runtime invariant layer armed: every applied
# update block re-proves the EC partition, PAT/FIB agreement, and
# per-device epoch monotonicity — under the race detector.
checkstrict:
	$(GO) test -tags flashcheck -race -timeout 30m ./...

# The concurrency-heavy paths only (System fan-out, pipeline, dispatcher,
# wire server, metrics): quick race pass during development.
race-hot:
	$(GO) test -race . ./internal/ce2d ./internal/wire ./internal/obs

# The hybrid predicate engine's trust anchors under the race detector:
# the BDD computed-cache cap, the atom engine's algebra, the
# what-if differential (metric and stats samplers read the single-owner
# engines while ingest and what-ifs mutate them, so any reader that
# bypasses the subspace mutex is a race report), and the differential
# oracle across predicate modes — including the mid-stream atom→BDD
# cutover.
pred-race:
	$(GO) test -race -count=1 -run 'TestCacheLimitEvicts' ./internal/bdd
	$(GO) test -race -count=1 ./internal/atoms
	$(GO) test -race -count=1 -run 'TestDifferential|TestWhatIfDifferential' .

# One benchmark per table/figure; BenchmarkIMT* guards the Fast IMT
# hot path against regressions (metrics disabled).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Append a work-stealing scheduler scaling measurement and a BDD GC
# measurement (peak/steady node counts, pause p95, full-state GC cost)
# to the benchmark trajectory file; each entry records the core count it
# was measured on.
bench-record:
	$(GO) run ./cmd/flashbench -exp scaling -scale small -record BENCH_flash.json
	$(GO) run ./cmd/flashbench -exp gc -scale small -record BENCH_flash.json
	$(GO) run ./cmd/flashbench -exp recovery -scale small -record BENCH_flash.json
	$(GO) run ./cmd/flashbench -exp shards -scale small -record BENCH_flash.json

# Memory-management soak: sustained prefix-mutating churn through a
# small memory budget, under the race detector. Asserts the live node
# sawtooth stays bounded, GC'd models are byte-identical to unbounded
# runs, counters stay monotone across the hybrid cutover, and GC keeps running
# while a sibling subspace is quarantined.
soak:
	$(GO) test -race -count=1 -run 'TestSoak|TestChaosGCUnderPoisoning' .

# Diff the exported surface of the root flash package against the
# committed golden (api/flash.txt). Regenerate after an intentional API
# change with: go run ./cmd/flashapi -write
apicheck:
	$(GO) run ./cmd/flashapi -dir . -golden api/flash.txt

# Brief fuzz pass over the predicate compiler, the Fast IMT oracle
# differential, the wire decoders, and the flashvet allow-directive
# parser; seeds live under each package's testdata/fuzz/.
fuzz:
	$(GO) test -fuzz=FuzzPrefixParse -fuzztime=30s ./internal/hs
	$(GO) test -fuzz=FuzzIMTOverwrite -fuzztime=30s ./internal/imt
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzShardFrameDecode -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzAllowDirective -fuzztime=30s ./internal/analysis
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=30s ./internal/ckpt

# Fault-injection suite under the race detector with the pinned seed
# (the CI mode): chaos model equality, quarantine paths, worker
# poisoning, pipeline close-while-feeding, and the injector's own tests.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestCorruptFrameQuarantinesDevice|TestFeedErrorQuarantinesDevice|TestWorkerPanicQuarantinesSubspace|TestPipelineCloseWhileFeeding' .
	$(GO) test -race -count=1 ./internal/faulty ./internal/wire

# Same suite with a fresh random fault schedule; the seed is logged so a
# failure reproduces with FLASH_CHAOS_SEED=<seed> make chaos.
chaos-random:
	FLASH_CHAOS_SEED=random $(GO) test -race -count=1 -v -run 'TestChaosModelEquality' .

# Crash-consistency suite under the race detector: kill-mid-epoch warm
# restart through the serving plane (torn checkpoint + leftover temp
# file), checkpoint/restore round trip, corrupt-skip fallback, and the
# snapshot-release-vs-checkpoint race.
ckpt-chaos:
	$(GO) test -race -count=1 -run 'TestCheckpointCrashRecovery|TestCheckpointRestoreRoundTrip|TestRestoreSkipsCorruptCheckpoint|TestRestoreExhaustedFallsBackToFullReingest|TestSnapshotReleaseRacesCheckpoint' .
	$(GO) test -race -count=1 ./internal/ckpt

# Distributed-sharding fault-injection suite under the race detector:
# kill a whole shard replica and partition another mid-epoch, prove the
# recovered coordinator's fingerprint and verdict multiset equal a
# single-process run, plus the differential oracle across shard counts
# and the rebalance no-loss/no-dup regression fences.
shard-chaos:
	$(GO) test -race -count=1 -run 'TestShardChaosModelEquality|TestShardDifferentialOracle' .
	$(GO) test -race -count=1 ./internal/shard

check: vet lint apicheck race checkstrict pred-race chaos ckpt-chaos shard-chaos soak
