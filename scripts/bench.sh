#!/usr/bin/env bash
# bench.sh — run the benchmark suite with -benchmem and record the numbers
# as BENCH_<date>.json, or compare two such recordings.
#
#   scripts/bench.sh                  full run -> BENCH_$(date +%F).json
#   scripts/bench.sh --quick          1-iteration smoke run (CI), report to stdout only;
#                                     the manager benchmarks rerun at 200x
#   scripts/bench.sh --force          overwrite an existing BENCH_<date>.json
#   scripts/bench.sh --compare A B    diff two BENCH json files; exit 1 on
#                                     any ns/op, B/op or allocs/op >10% worse
#   scripts/bench.sh --no-probe       skip the end-to-end drserverd/drload
#                                     RPS probe (and quick's journal rerun)
#
# Besides the go-test microbenchmarks, a run boots a journaled drserverd with
# fsync-per-mutation group commit and drives it with drload -bench-json, so
# the recorded report also carries an end-to-end RPS + latency record
# (drqos/cmd/drload.BenchmarkDrloadEndToEnd). Quick mode reruns the two
# journal append benchmarks at -benchtime 64x first — group commit needs
# enough parallel iterations to actually form batches, which 1x cannot show.
#
# Extra arguments after -- are passed to `go test`, in any combination with
# the flags above, e.g.:
#
#   scripts/bench.sh -- -bench 'BoundedFlood|Establish'
#   scripts/bench.sh --quick -- -bench BoundedFlood
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
force=0
probe=1
extra=()
while [[ $# -gt 0 ]]; do
    case "$1" in
    --compare)
        shift
        [[ $# -eq 2 ]] || { echo "usage: scripts/bench.sh --compare old.json new.json" >&2; exit 2; }
        exec go run ./cmd/benchjson -compare "$1" "$2"
        ;;
    --quick)
        quick=1
        shift
        ;;
    --force)
        force=1
        shift
        ;;
    --no-probe)
        probe=0
        shift
        ;;
    --)
        shift
        extra=("$@")
        break
        ;;
    *)
        echo "bench.sh: unknown argument '$1' (go test args go after --)" >&2
        exit 2
        ;;
    esac
done

benchtime=()
out="BENCH_$(date +%F).json"
if [[ $quick -eq 1 ]]; then
    benchtime=(-benchtime 1x)
    out=""
fi

# A recorded baseline is a measurement artifact: silently clobbering
# today's file with a run under different machine load invalidates any
# comparison already made against it. Demand an explicit --force.
if [[ -n "$out" && -e "$out" && $force -eq 0 ]]; then
    echo "bench.sh: $out already exists; re-run with --force to overwrite" >&2
    exit 1
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# -run '^$' skips the unit tests so only benchmarks execute; count=1
# defeats test caching so every run measures. The ${extra[@]+...} guard
# keeps `set -u` happy on bash < 4.4 when no pass-through args were given.
go test -run '^$' -bench . -benchmem -count 1 \
    ${benchtime[@]+"${benchtime[@]}"} ${extra[@]+"${extra[@]}"} ./... | tee "$raw"

if [[ -n "$out" ]]; then
    go run ./cmd/benchjson -host "$(uname -sm)" < "$raw" > "$out"
    echo "wrote $out"
else
    # Quick mode still exercises the parser so CI catches format drift.
    go run ./cmd/benchjson < "$raw" > /dev/null
    echo "quick bench parsed ok"
fi

if [[ $quick -eq 1 ]]; then
    # One iteration of the manager benchmarks is one establish into a
    # 2 000-connection population nobody looked at: run enough events that
    # the kernels' recycled scratch, the slot free list and a few link
    # failures are actually exercised, so the benchmarks cannot rot.
    echo "== manager churn + fail/repair benchmarks (level population)"
    go test -run '^$' -bench 'BenchmarkManager' -benchmem \
        -benchtime 200x -count 1 ./internal/manager/
    # One iteration of a backup search is one cold scratch; 200 reuse it.
    echo "== backup route search (reused scratch)"
    go test -run '^$' -bench 'BenchmarkBackupRoute' -benchmem \
        -benchtime 200x -count 1 ./internal/routing/
    # One iteration of an answer is one cold pooled buffer; 200 reuse it.
    echo "== answer writer + sharded front end (pooled buffers)"
    go test -run '^$' -bench 'BenchmarkWriteJSON' -benchmem \
        -benchtime 200x -count 1 ./internal/server/
    go test -run '^$' -bench 'BenchmarkFrontEnd' -benchmem \
        -benchtime 200x -count 1 ./internal/shard/
fi

if [[ $quick -eq 1 && $probe -eq 1 ]]; then
    # 1x iterations cannot form a group-commit batch; rerun the journal
    # append pair with enough parallel iterations that the appends/fsync
    # amortization (and the single-fsync baseline it beats) is visible.
    echo "== journal append benchmarks (group-commit batching)"
    go test -run '^$' -bench 'BenchmarkJournalAppend' -benchmem \
        -benchtime 64x -count 1 ./internal/journal/
fi

if [[ $probe -eq 1 ]]; then
    # End-to-end probe: a journaled drserverd with fsync-per-mutation group
    # commit, driven closed-loop by drload; the run's RPS + latency record is
    # merged into the report (or a throwaway file in quick mode).
    echo "== end-to-end RPS probe (drserverd fsync=1 group commit + drload)"
    tmp="$(mktemp -d)"
    srv_pid=""
    probe_cleanup() {
        [[ -n "$srv_pid" ]] && kill -9 "$srv_pid" 2>/dev/null || true
        rm -rf "$tmp" "$raw"
    }
    trap probe_cleanup EXIT
    go build -o "$tmp/drserverd" ./cmd/drserverd
    go build -o "$tmp/drload" ./cmd/drload
    addr=127.0.0.1:18097
    "$tmp/drserverd" -addr "$addr" -nodes 40 -seed 7 \
        -data-dir "$tmp/data" -fsync 1 >"$tmp/server.log" 2>&1 &
    srv_pid=$!
    for _ in $(seq 1 100); do
        curl -fsS "http://$addr/readyz" >/dev/null 2>&1 && break
        sleep 0.1
    done
    curl -fsS "http://$addr/readyz" >/dev/null 2>&1 || {
        echo "bench.sh: drserverd did not come up; log:" >&2
        cat "$tmp/server.log" >&2
        exit 1
    }
    requests=20000
    probe_out="$out"
    if [[ $quick -eq 1 ]]; then
        requests=3000
        probe_out="$tmp/probe.json"
    fi
    "$tmp/drload" -addr "http://$addr" -workers 8 -requests "$requests" \
        -seed 9 -bench-json "$probe_out"
    kill -TERM "$srv_pid" 2>/dev/null || true
    wait "$srv_pid" 2>/dev/null || true
    srv_pid=""

    # Shard scaling probe: the same intra-heavy closed-loop workload against
    # the classic single-plane daemon and a 4-shard deployment of the same
    # tier topology, recorded as BenchmarkDrloadShard1 / BenchmarkDrloadShard4.
    # -exec-delay models per-command admission work so the serialized actor
    # loop — the thing sharding parallelizes — is the bottleneck, not HTTP.
    echo "== shard scaling probe (-shards 1 vs -shards 4, intra-heavy workload)"
    shard_requests=4000
    if [[ $quick -eq 1 ]]; then
        shard_requests=1200
    fi
    shard_rps() {
        local nshards=$1 port=$2 name=$3
        "$tmp/drserverd" -addr "127.0.0.1:$port" -kind tier -seed 7 \
            -shards "$nshards" -exec-delay 1ms \
            >"$tmp/shard$nshards.log" 2>&1 &
        srv_pid=$!
        for _ in $(seq 1 100); do
            curl -fsS "http://127.0.0.1:$port/readyz" >/dev/null 2>&1 && break
            sleep 0.1
        done
        curl -fsS "http://127.0.0.1:$port/readyz" >/dev/null 2>&1 || {
            echo "bench.sh: drserverd -shards $nshards did not come up; log:" >&2
            cat "$tmp/shard$nshards.log" >&2
            exit 1
        }
        # -cross-frac 0.02 keeps the 4-shard run intra-heavy (the 1-shard
        # daemon has no /v1/shards, so drload falls back to uniform pairs).
        "$tmp/drload" -addr "http://127.0.0.1:$port" -workers 8 \
            -requests "$shard_requests" -seed 9 -cross-frac 0.02 \
            -bench-json "$probe_out" -bench-name "$name" \
            >"$tmp/load-shard$nshards.log" 2>&1
        kill -TERM "$srv_pid" 2>/dev/null || true
        wait "$srv_pid" 2>/dev/null || true
        srv_pid=""
        grep -oE '[0-9]+ req/s' "$tmp/load-shard$nshards.log" | head -1 | cut -d' ' -f1
    }
    rps1=$(shard_rps 1 18098 BenchmarkDrloadShard1)
    rps4=$(shard_rps 4 18099 BenchmarkDrloadShard4)
    awk -v a="$rps1" -v b="$rps4" \
        'BEGIN { printf "shard scaling: 1 shard %d req/s, 4 shards %d req/s (%.2fx)\n", a, b, b/a }'

    if [[ $quick -eq 1 ]]; then
        echo "quick probe record:"
        cat "$probe_out"
    fi
fi
