#!/usr/bin/env sh
# Tier-1 verification: build, vet, and run the full test suite with the
# race detector (the internal/server actor loop must stay race-clean).
#
#   scripts/check.sh             build + vet + full race tests (the source
#                                gates in gates_test.go and the process rows
#                                of cmd/drserverd among them), a 10 s fuzz of
#                                WriteJSON, then vet + tests of the bench/
#                                module
#
# Each mode below is build + vet, the in-process episodes of one family
# (cmd/chaos, judged by the replay oracle, DESIGN.md §15) and the tests of
# its subsystem under -race, then its row of TestProcess: real drserverd
# processes spawned, killed and restarted by cmd/drserverd/process_test.go.
#
#   scripts/check.sh --chaos     manager traces + concurrent mix episodes,
#                                fault-injection and oracle self-tests
#   scripts/check.sh --recovery  crash-restart episodes; row durable
#                                (SIGKILL quiet and mid-burst, SIGTERM)
#   scripts/check.sh --overload  overload episodes + shedding, lane, limiter
#                                and readiness tests (no process row)
#   scripts/check.sh --forecast  forecast tests + overload episodes, and
#                                TestBootServeDrain's forecast row
#   scripts/check.sh --shard     shard tests + mid-2PC kill episodes; row
#                                sharded (SIGKILL, per-shard fingerprints)
#   scripts/check.sh --failover  replica tests + primary-kill episodes; row
#                                pair (promotion < 1 s, fenced rejoin)
#   scripts/check.sh --partition netchaos/lease/2PC tests + partition
#                                episodes; row pair-manual (promote interlock)
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...

# process ROW: one row of TestProcess under -race.
process() {
    echo "== process row $1: real drserverd processes"
    go test -race -count 1 -run "TestProcess/$1\$" ./cmd/drserverd
}

case "${1:-}" in
--chaos)
    # 60 deterministic manager traces (audit after every event) plus
    # concurrent mix episodes, every other one with a mid-burst shutdown.
    echo "== chaos: 60 manager traces under -race"
    go run -race ./cmd/chaos -episodes 60 -events 120 -seed 1 -q
    echo "== chaos: 6 concurrent mix episodes under -race"
    go run -race ./cmd/chaos -episode mix -episodes 6 -q
    echo "== chaos: fault-injection and oracle self-tests"
    go test -race -count 1 -run 'TestShrink|TestOracleCanFail|TestDegraded|TestEpisodesClean' \
        ./internal/chaos/ ./internal/server/
    ;;
--recovery)
    # Journaled episodes killed at varying points (torn tails, lost
    # group-commit windows), restarted, and judged against the acknowledged
    # prefix.
    echo "== chaos: 8 crash-restart episodes"
    go run ./cmd/chaos -episode crash -episodes 8 -q
    process durable
    ;;
--overload)
    echo "== chaos: 4 overload episodes under -race"
    go run -race ./cmd/chaos -episode overload -episodes 4 -q
    echo "== overload unit tests under -race"
    go test -race -count 1 -run 'TestExpiredCommandShed|TestPriorityLane|TestOverload|TestHTTPOverload|TestHTTPRateLimit|TestReadyz|TestLimiter|TestDetector' \
        ./internal/server/ ./internal/overload/
    ;;
--forecast)
    # Estimator feed, staleness/fallback, predictive latch, what-if, the
    # HTTP surface and the closed-loop model-vs-simulation agreement.
    echo "== forecast unit tests under -race"
    go test -race -count 1 -run 'TestForecast|TestWhatIf|TestDeltaTuning|TestDetectorPredicted|TestEstimator' \
        ./internal/forecast/ ./internal/server/ ./internal/overload/ \
        ./internal/estimator/
    go run -race ./cmd/chaos -episode overload -episodes 2 -q
    echo "== drserverd's -forecast-* flags reach the live model"
    go test -race -count 1 -run 'TestBootServeDrain/forecast$' ./cmd/drserverd
    ;;
--shard)
    echo "== shard unit tests under -race"
    go test -race -count 1 ./internal/shard/
    go run -race ./cmd/chaos -episode shard-kill -episodes 4 -q
    echo "== chaos: 3 sharded mid-2PC kill episodes"
    go run ./cmd/chaos -episode shard-kill -episodes 3 -seed 5 -q
    process sharded
    ;;
--failover)
    # Streaming, lockstep verification, semi-sync acks, promotion, fencing,
    # re-bootstrap.
    echo "== replica unit tests under -race"
    go test -race -count 1 ./internal/replica/
    go run -race ./cmd/chaos -episode failover -episodes 1 -q
    echo "== chaos: 2 primary-kill failover episodes"
    go run ./cmd/chaos -episode failover -episodes 2 -seed 2 -q
    process pair
    ;;
--partition)
    # The fault injector itself, the lease-fencing matrix (symmetric and
    # both asymmetric shapes, promote interlock) and the 2PC suspicion
    # fast path.
    echo "== netchaos + lease + 2PC-suspicion tests under -race"
    go test -race -count 1 ./internal/netchaos/
    go test -race -count 1 -run 'TestLease|TestPromoteInterlock' ./internal/replica/
    go test -race -count 1 -run 'TestSuspectedShardFastFail503' ./internal/shard/
    echo "== chaos: 20 seeded partition episodes under -race"
    go run -race ./cmd/chaos -episode partition -episodes 20 -q
    process pair-manual
    ;;
"")
    # -timeout is per test binary: internal/experiments runs full
    # quick-scale reproductions (plus the worker-determinism replays) and
    # needs more than the default 10m under the race detector on small
    # machines. The allocation gates count mallocs, which race
    # instrumentation adds to: they are skipped here by name and run
    # uninstrumented just below, rather than carrying bounds loose enough
    # for both.
    echo "== go test -race ./..."
    go test -race -timeout 45m -skip '^(TestEstablishAllocsBounded|TestFailLinkAllocsBounded)$' ./...

    # The adaptation kernels, uninstrumented: event-for-event identity with
    # the kernels they replaced (hashes recorded at those commits), and the
    # allocation bounds that keep per-event maps and per-search arrays from
    # coming back.
    echo "== adaptation identity + allocation gates (no -race)"
    go test -count 1 -run '^(TestAdaptationMatchesParent|TestEstablishAllocsBounded|TestFailLinkAllocsBounded)$' ./internal/manager/

    # WriteJSON re-indents encoding/json's compact output itself; the seed
    # corpus ran above as ordinary tests, this explores beyond it against
    # json.Indent.
    echo "== fuzz: WriteJSON's re-indenter against json.Indent (10s)"
    go test -run '^$' -fuzz FuzzWriteJSON -fuzztime 10s ./internal/server

    # bench/ is its own module (drqos/bench, replace drqos => ../), so ./...
    # above does not descend into it — yet it compiles against
    # internal/server, internal/shard, internal/journal and internal/replica.
    # Vet and test it here so a refactor of those packages cannot break the
    # benchmark unseen.
    echo "== bench module: go vet + go test"
    (cd bench && go vet ./... && go test ./...)
    ;;
*)
    echo "usage: $0 [--chaos|--recovery|--overload|--forecast|--shard|--failover|--partition]" >&2
    exit 2
    ;;
esac
echo "== OK${1:+ (${1#--})}"
