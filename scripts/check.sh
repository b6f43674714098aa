#!/usr/bin/env sh
# Tier-1 verification, one path and no arguments:
#
#   build (linux, darwin, windows) + vet
#   go test -race ./...      every root test under the race detector: the
#                            source gates in gates_test.go, TestEpisodes
#                            (every episode row at seeds 1 and 2) and the
#                            TestProcess rows of cmd/drserverd (real
#                            daemons SIGKILLed, SIGTERMed and restarted)
#   adaptation identity and allocation gates, uninstrumented
#   the stream tests         TestStream|TestAck of internal/replica, 20
#                            times under -race
#   the episode soak         85 more episodes under -race: seeds 3+r, 20+r,
#                            37+r, 54+r and 71+r for row r of the table, so
#                            each row runs at seven seeds in all
#   eight 10 s fuzzes        each from an empty cache, exec count printed
#   experiments              (amd64 only) every experiment at full scale
#                            diffed against experiments_full.txt
#   the bench/ module        vet + tests
#
# TestNoTestOnlyExports (gates_test.go, ~4 s, ~7 s under -race) type-checks
# this module and bench/ and fails with one "file:line: pkg.Type.Method"
# line per export under internal/ that only tests call: delete it, or move
# it into a _test.go file of its package (export_test.go when the external
# test package needs it). Only …ForTesting and SetTestHook… names are
# exempt.
#
# To run one fault family alone: go run -race ./cmd/chaos -episode <family>,
# and go test -run 'TestProcess/<row>' ./cmd/drserverd.
set -eu
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
    echo "usage: $0 (no arguments; every step runs on the one path)" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== go build ./..."
go build ./...
# The journal preallocates and syncs with Linux calls; elsewhere a
# build-tagged fallback appends and fsyncs. Keep that fallback compiling.
echo "== GOOS=darwin|windows go build ./..."
GOOS=darwin go build ./...
GOOS=windows go build ./...
echo "== go vet ./..."
go vet ./...

# -timeout is per test binary: internal/experiments runs full quick-scale
# reproductions (plus the worker-determinism replays) and needs more than
# the default 10m under the race detector on small machines. The allocation
# gates count mallocs, which race instrumentation adds to: they are skipped
# here by name and run uninstrumented just below, rather than carrying
# bounds loose enough for both.
echo "== go test -race ./..."
go test -race -timeout 45m -skip '^(TestEstablishAllocsBounded|TestFailLinkAllocsBounded)$' ./...

# The adaptation kernels, uninstrumented: event-for-event identity with the
# kernels they replaced (hashes recorded at those commits), and the
# allocation bounds that keep per-event maps and per-search arrays from
# coming back.
echo "== adaptation identity + allocation gates (no -race)"
go test -count 1 -run '^(TestAdaptationMatchesParent|TestEstablishAllocsBounded|TestFailLinkAllocsBounded)$' ./internal/manager/

# The stream's reader, ack writer and push loop race each other on every
# replicated mutation; one run rarely shows an interleaving twenty do.
echo "== replica stream and ack tests: 20 runs under -race"
go test -race -count 20 -run 'TestStream|TestAck' ./internal/replica/

# Episode i runs row i mod 17 at seed 3+i, so 85 episodes give every row of
# the table five seeds that TestEpisodes (seeds 1 and 2) does not run.
echo "== episode soak: 85 episodes, every row at five more seeds, under -race"
go run -race ./cmd/chaos -episode all -seed 3 -episodes 85 -q

# Each fuzz step starts from an empty cache, so its budget goes to new
# inputs and not to re-running what earlier runs found; the committed
# testdata/fuzz/ seeds still run as its baseline. A row is the target, its
# package, the cap on minimising each new-coverage input (Go's default is
# 60s) and the fewest execs the step may report:
#   FuzzWriteJSON           WriteJSON's re-indenter against json.Indent
#   FuzzOpenSegment         a mutated preallocated segment: a prefix of its
#                           records or a refusal, and the journal goes on
#                           right after the prefix
#   FuzzGrowQueue           the growth heap's served order against a scan
#                           that re-ranks every live candidate
#   FuzzChainedSetsMatchDefinition
#                           the event kernels' chained sets, reports and
#                           levels against the paper's definitions; most
#                           inputs find new coverage, so minimisation is
#                           capped per input (10x), not per second
#   FuzzFloodMatchesParent  the array flood against the parent's flood
#   FuzzApply               manager traces: audit after every event, live =
#                           restored at a cut = replayed; an input costs
#                           milliseconds, so minimisation is capped
#   FuzzRestore             a snapshot body is refused, or restores
#                           audit-clean and re-exports to the same
#                           fingerprint
#   FuzzDecodeFrames        a follower's frame decoder against the encoder
while read -r target pkg cap floor; do
    echo "== fuzz: $target (10s, fresh cache)"
    if ! go test -run '^$' -fuzz "^$target\$" -fuzztime 10s -fuzzminimizetime "$cap" "./$pkg" \
        -args -test.fuzzcachedir="$tmp/fuzz/$target" </dev/null >"$tmp/$target.log" 2>&1; then
        cat "$tmp/$target.log"
        exit 1
    fi
    execs=$(sed -n 's/^fuzz: elapsed: .*, execs: \([0-9]*\) .*/\1/p' "$tmp/$target.log" | tail -n 1)
    echo "   ${execs:-0} execs (floor $floor)"
    if [ "${execs:-0}" -lt "$floor" ]; then
        cat "$tmp/$target.log"
        echo "fuzz: $target did ${execs:-0} execs, fewer than its floor of $floor" >&2
        exit 1
    fi
done <<EOF
FuzzWriteJSON internal/server 60s 0
FuzzOpenSegment internal/journal 2s 0
FuzzGrowQueue internal/manager 60s 0
FuzzChainedSetsMatchDefinition internal/manager 10x 1000
FuzzFloodMatchesParent internal/routing 60s 0
FuzzApply internal/chaos 2s 0
FuzzRestore internal/manager 2s 0
FuzzDecodeFrames internal/journal 60s 0
EOF

# The paper's figures, tables and ablations at full scale (under a minute on
# a 2-vCPU VM), against the committed output that EXPERIMENTS.md copies its
# tables from; only the "=== name (scale, wall time) ===" lines may differ.
# The run writes to a file first: under sh, without pipefail, a pipe's
# status would be the filter's and would hide a run that failed after
# printing. Go fuses multiply-add on arm64 and some other targets, which can
# move a float's last bits, so the step runs on amd64 only.
if [ "$(go env GOARCH)" = amd64 ]; then
    echo "== experiments: the full-scale run reproduces experiments_full.txt"
    go run ./cmd/experiments -run all -scale full >"$tmp/experiments.txt"
    grep -v '^=== ' "$tmp/experiments.txt" >"$tmp/run.txt"
    grep -v '^=== ' experiments_full.txt | diff -u - "$tmp/run.txt"
else
    echo "== experiments: skipped on $(go env GOARCH); experiments_full.txt holds amd64 floats"
fi

# bench/ is its own module (drqos/bench, replace drqos => ../), so ./...
# above does not descend into it — yet it compiles against internal/server,
# internal/shard, internal/journal and internal/replica. Vet and test it
# here so a refactor of those packages cannot break the benchmark unseen.
echo "== bench module: go vet + go test"
(cd bench && go vet ./... && go test ./...)
echo "== OK"
