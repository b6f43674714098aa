#!/usr/bin/env sh
# Tier-1 verification: build, vet, and run the full test suite with the
# race detector (the internal/server actor loop must stay race-clean).
#
#   scripts/check.sh             build + vet + full race tests (the source
#                                gates in gates_test.go and the process rows
#                                of cmd/drserverd among them), 10 s fuzzes of
#                                WriteJSON, journal segment recovery
#                                (FuzzOpenSegment), the growth heap, the
#                                event kernels against the paper's
#                                definitions (FuzzChainedSetsMatchDefinition),
#                                the bounded flood against its parent
#                                (FuzzFloodMatchesParent), the
#                                manager's event traces (FuzzApply),
#                                snapshot restore (FuzzRestore) and the
#                                stream's frame decoder, then (amd64 only)
#                                every experiment at full scale diffed
#                                against experiments_full.txt, then vet +
#                                tests of the bench/ module
#
# Among the root tests, TestNoTestOnlyExports (gates_test.go, ~4 s, ~7 s
# under -race) type-checks this module and bench/ and fails with one
# "file:line: pkg.Type.Method" line per export under internal/ that only
# tests call: delete it, or move it into a _test.go file of its package
# (export_test.go when the external test package needs it). Only
# …ForTesting and SetTestHook… names are exempt.
#
# Each mode below is build + vet, the in-process episodes of one family
# (cmd/chaos, judged by the replay oracle, DESIGN.md §15) and the tests of
# its subsystem under -race, then its row of TestProcess: real drserverd
# processes spawned, killed and restarted by cmd/drserverd/process_test.go.
#
#   scripts/check.sh --chaos     FuzzApply's seed corpus + concurrent mix
#                                episodes, fault-injection and oracle
#                                self-tests
#   scripts/check.sh --recovery  crash-restart episodes; row durable
#                                (SIGKILL quiet and mid-burst, SIGTERM)
#   scripts/check.sh --overload  overload episodes + shedding, lane, limiter
#                                and readiness tests, on one server and on
#                                the sharded front end through the one
#                                handler set (no process row)
#   scripts/check.sh --forecast  forecast tests + overload episodes, and
#                                TestBootServeDrain's forecast row
#   scripts/check.sh --shard     shard tests + mid-2PC kill episodes; row
#                                sharded (SIGKILL, per-shard fingerprints)
#   scripts/check.sh --failover  replica tests (the stream and ack tests 20
#                                times) + primary-kill episodes; row pair
#                                (promotion < 1 s, fenced rejoin, SIGTERM
#                                drains a streaming pair)
#   scripts/check.sh --partition netchaos/lease/2PC tests + partition
#                                episodes; row pair-manual (promote
#                                interlock, SIGTERM drains a leased
#                                streaming pair)
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
# The journal preallocates and syncs with Linux calls; elsewhere a
# build-tagged fallback appends and fsyncs. Keep that fallback compiling.
echo "== GOOS=darwin|windows go build ./..."
GOOS=darwin go build ./...
GOOS=windows go build ./...
echo "== go vet ./..."
go vet ./...

# process ROW: one row of TestProcess under -race.
process() {
    echo "== process row $1: real drserverd processes"
    go test -race -count 1 -run "TestProcess/$1\$" ./cmd/drserverd
}

case "${1:-}" in
--chaos)
    # FuzzApply's seed corpus — 64 manager traces of at least 128 events
    # over four admission configs and 16 topologies, audited after every
    # event, live, restored and replayed fingerprints equal — and the
    # test proving its audit catches a planted corruption; then concurrent
    # mix episodes, every other one with a mid-burst shutdown.
    echo "== chaos: FuzzApply seed corpus + can-fail test under -race"
    go test -race -count 1 -run '^(FuzzApply|TestSeedCorpus|TestFuzzApplyCanFail)$' ./internal/chaos/
    echo "== chaos: 6 concurrent mix episodes under -race"
    go run -race ./cmd/chaos -episode mix -episodes 6 -q
    echo "== chaos: fault-injection and oracle self-tests"
    go test -race -count 1 -run 'TestOracleCanFail|TestDegraded' \
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
    echo "== the same rules on both planes: sharded shedding, rate limit, readiness"
    go test -race -count 1 -run 'TestOverloadedShardSheds|TestEveryRouteEveryPlane' ./internal/shard/
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
    echo "== the stream's reader, ack writer and push loop: 20 runs under -race"
    go test -race -count 20 -run 'TestStream|TestAck' ./internal/replica/
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

    # A real preallocated segment, zero tail included, with its bytes
    # mutated: Open replays a prefix of its records or refuses, and the
    # journal goes on right after the prefix.
    echo "== fuzz: FuzzOpenSegment, a prefix or a refusal (10s)"
    go test -run '^$' -fuzz FuzzOpenSegment -fuzztime 10s -fuzzminimizetime 2s ./internal/journal

    # The filling's growth heap (mixed utilities) against a scan that re-ranks
    # every live candidate at every step, over streams decoded from the input.
    echo "== fuzz: the growth heap's served order against a linear scan (10s)"
    go test -run '^$' -fuzz FuzzGrowQueue -fuzztime 10s ./internal/manager

    # The event kernels' set algebra against the paper's definitions: chained
    # sets, starting candidates, reports and levels recomputed by scanning
    # every live connection, on Waxman graphs and scripts from the input.
    # Most inputs find new coverage, and with a 2 s minimisation of each the
    # step tried about 90 inputs; ten minimising runs apiece leave it about
    # 1 400 (2-vCPU VM, empty fuzz cache).
    echo "== fuzz: FuzzChainedSetsMatchDefinition, kernels by definition (10s)"
    go test -run '^$' -fuzz FuzzChainedSetsMatchDefinition -fuzztime 10s -fuzzminimizetime 10x ./internal/manager

    # The array flood and its DirCost adapter against the parent's flood,
    # on Waxman graphs and allowances decoded from the input.
    echo "== fuzz: the bounded flood against the parent's (10s)"
    go test -run '^$' -fuzz FuzzFloodMatchesParent -fuzztime 10s ./internal/routing

    # Manager traces decoded from the input: audit after every event, and
    # the live, restored-at-a-cut and replayed managers end in one state.
    # An input costs milliseconds, so the default 60 s minimisation of each
    # new-coverage input would eat the whole budget; cap it.
    echo "== fuzz: FuzzApply, live = restore = replay (10s)"
    go test -run '^$' -fuzz FuzzApply -fuzztime 10s -fuzzminimizetime 2s ./internal/chaos

    # What recovery trusts: a snapshot body is refused, or restores to an
    # audit-clean manager whose re-exported state restores to the same
    # fingerprint. Inputs cost microseconds, but keep minimisation capped
    # like FuzzApply's.
    echo "== fuzz: FuzzRestore, refused or audit-clean and stable (10s)"
    go test -run '^$' -fuzz FuzzRestore -fuzztime 10s -fuzzminimizetime 2s ./internal/manager

    # What a follower applies from its primary's stream: refused, or the
    # events that encode back to the input byte for byte.
    echo "== fuzz: DecodeFrames against EncodeFramesForTesting (10s)"
    go test -run '^$' -fuzz FuzzDecodeFrames -fuzztime 10s ./internal/journal

    # The paper's figures, tables and ablations at full scale (under a minute
    # on a 2-vCPU VM), against the committed output that EXPERIMENTS.md
    # copies its tables from; only the "=== name (scale, wall time) ===" lines
    # may differ. Go fuses multiply-add on arm64 and some other targets,
    # which can move a float's last bits, so the step runs on amd64 only.
    if [ "$(go env GOARCH)" = amd64 ]; then
        echo "== experiments: the full-scale run reproduces experiments_full.txt"
        out=$(mktemp -d)
        trap 'rm -rf "$out"' EXIT
        go run ./cmd/experiments -run all -scale full | grep -v '^=== ' >"$out/run.txt"
        grep -v '^=== ' experiments_full.txt | diff -u - "$out/run.txt"
    else
        echo "== experiments: skipped on $(go env GOARCH); experiments_full.txt holds amd64 floats"
    fi

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
