#!/usr/bin/env sh
# Tier-1 verification: build, vet, and run the full test suite with the
# race detector (the internal/server actor loop must stay race-clean).
#
#   scripts/check.sh             build + vet + full race tests (the source
#                                gates in gates_test.go among them),
#                                a 10 s fuzz of WriteJSON, then vet + tests
#                                of the bench/ module
#   scripts/check.sh --chaos     build + vet + seeded chaos
#                                episodes under -race (manager and server),
#                                plus the fault-injection tests
#   scripts/check.sh --recovery  build + end-to-end durability
#                                smoke: kill -9 a journaled drserverd
#                                mid-burst, restart from the same data dir,
#                                and require the recovered population to
#                                match the pre-kill metrics exactly
#   scripts/check.sh --overload  build + in-process overload
#                                episodes under -race, then a live 4x
#                                over-capacity drload burst against a real
#                                drserverd: non-zero sheds with Retry-After,
#                                bounded read p99, clean return to ready
#   scripts/check.sh --forecast  build + forecast unit tests
#                                under -race, then a live forecasting
#                                drserverd driven by a steady closed-loop
#                                drload run: the online Markov model must
#                                land within 10% of the measured mean
#                                bandwidth, and /v1/forecast + what-if must
#                                answer throughout
#   scripts/check.sh --shard     build + sharded-plane tests
#                                under -race and mid-2PC kill episodes, then
#                                a live drserverd -shards 4 driven with
#                                cross-shard traffic, kill -9'd and
#                                restarted: the replayed per-shard state
#                                must match the pre-kill metrics exactly and
#                                the plane must admit again (intra + cross)
#   scripts/check.sh --failover  build + replication tests
#                                under -race and primary-kill episodes, then
#                                a live two-node pair: kill -9 the primary
#                                mid-burst, gate the standby's promotion
#                                under one second, require the load to
#                                survive by rotating endpoints, and require
#                                the rejoined ex-primary to converge to a
#                                bit-identical state fingerprint
#   scripts/check.sh --partition build + netchaos/lease/2PC
#                                partition tests under -race, 20 seeded
#                                partition episodes, then a live leased
#                                pair: promote interlock probed over HTTP,
#                                a drload acked-mutation ledger run, kill
#                                -9 + manual promote, and a second ledger
#                                run gated on acked_lost=0
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...

if [ "${1:-}" = "--chaos" ]; then
    # 60 deterministic manager traces (audit after every event) plus
    # concurrent mix episodes, every other one with a mid-burst shutdown, all
    # under the race detector, then the fault-injection and oracle self-tests.
    echo "== chaos: 60 manager traces under -race"
    go run -race ./cmd/chaos -episodes 60 -events 120 -seed 1 -q
    echo "== chaos: 6 concurrent mix episodes under -race"
    go run -race ./cmd/chaos -episode mix -episodes 6 -q
    echo "== chaos: fault-injection and oracle self-tests"
    go test -race -count 1 -run 'TestShrink|TestOracleCanFail|TestDegraded|TestEpisodesClean' \
        ./internal/chaos/ ./internal/server/
    echo "== OK (chaos)"
    exit 0
fi

if [ "${1:-}" = "--recovery" ]; then
    # Library-level crash matrix first: journaled episodes killed at varying
    # points (torn tails, lost group-commit windows), restarted, and judged
    # by the replay oracle against the acknowledged prefix.
    echo "== chaos: 8 crash-restart episodes"
    go run ./cmd/chaos -episode crash -episodes 8 -q

    # End-to-end: a real drserverd process, kill -9, restart from disk.
    TMP="$(mktemp -d)"
    SRV_PID=""
    cleanup() {
        [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
        rm -rf "$TMP"
    }
    trap cleanup EXIT
    ADDR=127.0.0.1:18080
    echo "== building drserverd + drload"
    go build -o "$TMP/drserverd" ./cmd/drserverd
    go build -o "$TMP/drload" ./cmd/drload

    start_server() {
        "$TMP/drserverd" -addr "$ADDR" -nodes 40 -seed 7 \
            -data-dir "$TMP/data" -fsync -1 -snapshot-every 50 \
            >>"$TMP/server.log" 2>&1 &
        SRV_PID=$!
        i=0
        while ! curl -fsS "http://$ADDR/v1/stats" >/dev/null 2>&1; do
            i=$((i + 1))
            if [ "$i" -ge 100 ]; then
                echo "FAIL: drserverd did not come up; log:" >&2
                cat "$TMP/server.log" >&2
                exit 1
            fi
            sleep 0.1
        done
    }

    # The deterministic slice of /metrics: population, level histogram,
    # journal position, admission counters. Equal captures mean equal state.
    state_metrics() {
        curl -fsS "http://$ADDR/metrics" | grep -E \
            '^drqos_(connections_alive|connections_level|connections_unprotected|journal_seq|establish_requests_total|establish_rejects_total|links_failed)'
    }

    echo "== recovery smoke 1: quiescent kill -9, restart, exact state match"
    start_server
    "$TMP/drload" -addr "http://$ADDR" -workers 4 -requests 400 -seed 11 \
        -terminate-frac 0.1 >"$TMP/load1.log" 2>&1
    state_metrics >"$TMP/pre.metrics"
    if ! grep -Eq '^drqos_connections_alive [1-9]' "$TMP/pre.metrics"; then
        echo "FAIL: burst left no alive connections; nothing meaningful to recover" >&2
        cat "$TMP/pre.metrics" >&2
        exit 1
    fi
    kill -9 "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true
    start_server
    state_metrics >"$TMP/post.metrics"
    if ! diff -u "$TMP/pre.metrics" "$TMP/post.metrics"; then
        echo "FAIL: state after kill -9 + restart differs from the journaled state" >&2
        exit 1
    fi

    echo "== recovery smoke 2: kill -9 mid-burst, restart, audit"
    "$TMP/drload" -addr "http://$ADDR" -workers 4 -requests 100000 -seed 12 \
        -retries 1 -retry-base 10ms >"$TMP/load2.log" 2>&1 &
    LOAD_PID=$!
    sleep 1
    kill -9 "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true
    kill "$LOAD_PID" 2>/dev/null || true
    wait "$LOAD_PID" 2>/dev/null || true
    start_server
    if ! curl -fsS "http://$ADDR/v1/invariants" | grep -q '"ok": *true'; then
        echo "FAIL: invariants dirty after mid-burst crash recovery" >&2
        curl -fsS "http://$ADDR/v1/invariants" >&2 || true
        exit 1
    fi
    state_metrics >"$TMP/a.metrics"

    echo "== recovery smoke 3: clean SIGTERM, restart, exact state match"
    kill -TERM "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true
    start_server
    state_metrics >"$TMP/b.metrics"
    if ! diff -u "$TMP/a.metrics" "$TMP/b.metrics"; then
        echo "FAIL: clean shutdown + restart changed the recovered state" >&2
        exit 1
    fi
    kill -TERM "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
    grep -E 'journal: recovered' "$TMP/server.log" || true
    echo "== OK (recovery)"
    exit 0
fi

if [ "${1:-}" = "--overload" ]; then
    # In-process first: seeded overload episodes under the race detector
    # assert shedding, lane priority, latch/recovery and no degradation.
    echo "== chaos: 4 overload episodes under -race"
    go run -race ./cmd/chaos -episode overload -episodes 4 -q
    echo "== overload unit tests under -race"
    go test -race -count 1 -run 'TestExpiredCommandShed|TestPriorityLane|TestOverload|TestHTTPOverload|TestHTTPRateLimit|TestReadyz|TestLimiter|TestDetector' \
        ./internal/server/ ./internal/overload/

    # End-to-end: a race-built drserverd with a capped service rate, and
    # drload's open-loop burst at 4x the calibrated closed-loop rate. The
    # drill's own contract gates (sheds > 0, read p99 bounded, ready again
    # after the burst) decide the exit code.
    TMP="$(mktemp -d)"
    SRV_PID=""
    cleanup() {
        [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
        rm -rf "$TMP"
    }
    trap cleanup EXIT
    ADDR=127.0.0.1:18081
    echo "== building drserverd (-race) + drload"
    go build -race -o "$TMP/drserverd" ./cmd/drserverd
    go build -o "$TMP/drload" ./cmd/drload

    # -exec-delay caps the actor at ~500 cmd/s so the 4x burst reliably
    # overruns it; -rate-limit stays off here (the burst is one client).
    "$TMP/drserverd" -addr "$ADDR" -nodes 40 -seed 7 -queue 512 \
        -exec-delay 2ms -overload-target 100ms -overload-interval 1s \
        >"$TMP/server.log" 2>&1 &
    SRV_PID=$!
    i=0
    while ! curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "FAIL: drserverd did not come up; log:" >&2
            cat "$TMP/server.log" >&2
            exit 1
        fi
        sleep 0.1
    done

    echo "== overload smoke: 4x open-loop burst against live drserverd"
    "$TMP/drload" -addr "http://$ADDR" -overload \
        -overload-calibrate 2s -overload-duration 8s \
        -overload-read-p99-max 500ms -overload-recover-within 30s

    # The daemon must have logged the state transitions and still be sane.
    if ! grep -q 'OVERLOADED' "$TMP/server.log"; then
        echo "FAIL: drserverd never logged an OVERLOADED transition" >&2
        exit 1
    fi
    if ! curl -fsS "http://$ADDR/v1/invariants" | grep -q '"ok": *true'; then
        echo "FAIL: invariants dirty after the overload burst" >&2
        exit 1
    fi
    kill -TERM "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
    echo "== OK (overload)"
    exit 0
fi

if [ "${1:-}" = "--forecast" ]; then
    # In-process first: estimator-feed correctness, staleness/fallback,
    # predictive latch, what-if and the HTTP surface, all under -race.
    echo "== forecast unit tests under -race"
    go test -race -count 1 -run 'TestForecast|TestWhatIf|TestDeltaTuning|TestDetectorPredicted|TestEstimator' \
        ./internal/forecast/ ./internal/server/ ./internal/overload/ \
        ./internal/estimator/
    go run -race ./cmd/chaos -episode overload -episodes 2 -q

    # End-to-end: a race-built drserverd with live forecasting, driven by a
    # steady closed-loop drload run. drload's -forecast probe gates the
    # model against the measurement: |predicted-measured|/measured <= 10%.
    TMP="$(mktemp -d)"
    SRV_PID=""
    cleanup() {
        [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
        rm -rf "$TMP"
    }
    trap cleanup EXIT
    ADDR=127.0.0.1:18082
    echo "== building drserverd (-race) + drload"
    go build -race -o "$TMP/drserverd" ./cmd/drserverd
    go build -o "$TMP/drload" ./cmd/drload

    # -no-require-backup on the seed-3 topology gives a real standing
    # population (hundreds of channels, genuine bandwidth sharing); the
    # protected default on this sparse graph rejects ~90% and leaves the
    # model a trivial everyone-at-max comparison.
    "$TMP/drserverd" -addr "$ADDR" -nodes 40 -seed 3 -queue 256 \
        -no-require-backup -forecast-interval 500ms -forecast-predictive \
        >"$TMP/server.log" 2>&1 &
    SRV_PID=$!
    i=0
    while ! curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "FAIL: drserverd did not come up; log:" >&2
            cat "$TMP/server.log" >&2
            exit 1
        fi
        sleep 0.1
    done

    echo "== forecast smoke: steady closed-loop run, model within 10% of measurement"
    "$TMP/drload" -addr "http://$ADDR" -workers 4 -requests 10000 -seed 11 \
        -terminate-frac 0.4 -forecast -forecast-max-rel-err 0.10

    # The live surface must still answer, fresh, after the run.
    if ! curl -fsS "http://$ADDR/v1/forecast" | grep -q '"available": *true'; then
        echo "FAIL: /v1/forecast not available after the run" >&2
        curl -fsS "http://$ADDR/v1/forecast" >&2 || true
        exit 1
    fi
    if ! curl -fsS -X POST -H 'Content-Type: application/json' -d '{"count":5}' \
        "http://$ADDR/v1/forecast/whatif" | grep -q '"admit"'; then
        echo "FAIL: /v1/forecast/whatif did not answer a counterfactual" >&2
        exit 1
    fi
    if ! curl -fsS "http://$ADDR/metrics" | grep -q '^drqos_forecast_solves_total [1-9]'; then
        echo "FAIL: no successful solves on the metrics surface" >&2
        exit 1
    fi
    kill -TERM "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
    echo "== OK (forecast)"
    exit 0
fi

if [ "${1:-}" = "--shard" ]; then
    # In-process first: the partition/2PC/recovery unit tests and the
    # seeded mid-2PC shard-kill episodes, all race-enabled.
    echo "== shard unit tests under -race"
    go test -race -count 1 ./internal/shard/
    go run -race ./cmd/chaos -episode shard-kill -episodes 4 -q
    echo "== chaos: 3 sharded mid-2PC kill episodes"
    go run ./cmd/chaos -episode shard-kill -episodes 3 -seed 5 -q

    # End-to-end: a real drserverd -shards 4, cross-shard load, kill -9,
    # restart from the same per-shard journals.
    TMP="$(mktemp -d)"
    SRV_PID=""
    cleanup() {
        [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
        rm -rf "$TMP"
    }
    trap cleanup EXIT
    ADDR=127.0.0.1:18083
    echo "== building drserverd + drload"
    go build -o "$TMP/drserverd" ./cmd/drserverd
    go build -o "$TMP/drload" ./cmd/drload

    start_server() {
        "$TMP/drserverd" -addr "$ADDR" -kind tier -seed 7 -shards 4 \
            -data-dir "$TMP/data" -fsync -1 -snapshot-every 50 \
            >>"$TMP/server.log" 2>&1 &
        SRV_PID=$!
        i=0
        while ! curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; do
            i=$((i + 1))
            if [ "$i" -ge 100 ]; then
                echo "FAIL: sharded drserverd did not come up; log:" >&2
                cat "$TMP/server.log" >&2
                exit 1
            fi
            sleep 0.1
        done
    }

    # The deterministic slice of the sharded /metrics: aggregate and
    # per-shard populations, admission counters, the cross-connection
    # index. (The cross attempt/commit/abort counters persist via shard
    # snapshot headers, but a kill -9 rolls them back to the last
    # snapshot's tally, so they get their own lower-bound gate below
    # instead of riding the exact diff.)
    state_metrics() {
        curl -fsS "http://$ADDR/metrics" | grep -E \
            '^drqos_(connections_alive|connections_level|connections_unprotected|establish_requests_total|establish_rejects_total|links_failed|shard_connections_alive|cross_connections_active)'
    }

    echo "== shard smoke 1: cross-shard load against 4 shards"
    start_server
    if ! curl -fsS "http://$ADDR/v1/shards" | grep -q '"shards": *4'; then
        echo "FAIL: GET /v1/shards does not report 4 shards" >&2
        curl -fsS "http://$ADDR/v1/shards" >&2 || true
        exit 1
    fi
    "$TMP/drload" -addr "http://$ADDR" -workers 4 -requests 600 -seed 11 \
        -terminate-frac 0.1 -cross-frac 0.3 >"$TMP/load1.log" 2>&1
    if ! curl -fsS "http://$ADDR/metrics" | grep -Eq '^drqos_cross_commit_total [1-9]'; then
        echo "FAIL: the cross-shard load committed no two-phase establishes" >&2
        curl -fsS "http://$ADDR/metrics" | grep '^drqos_cross' >&2 || true
        exit 1
    fi
    state_metrics >"$TMP/pre.metrics"
    if ! grep -Eq '^drqos_cross_connections_active [1-9]' "$TMP/pre.metrics"; then
        echo "FAIL: no cross-shard connections alive before the kill" >&2
        cat "$TMP/pre.metrics" >&2
        exit 1
    fi

    echo "== shard smoke 2: kill -9, restart, exact per-shard state match"
    kill -9 "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true
    start_server
    state_metrics >"$TMP/post.metrics"
    if ! diff -u "$TMP/pre.metrics" "$TMP/post.metrics"; then
        echo "FAIL: sharded state after kill -9 + restart differs from the journaled state" >&2
        exit 1
    fi
    # The 2PC counters travel in shard snapshot headers: after a kill -9
    # restart they must come back at least to the last snapshot's tally,
    # not reset to zero.
    if ! curl -fsS "http://$ADDR/metrics" | grep -Eq '^drqos_cross_commit_total [1-9]'; then
        echo "FAIL: cross-shard 2PC counters reset to zero across the restart" >&2
        curl -fsS "http://$ADDR/metrics" | grep '^drqos_cross' >&2 || true
        exit 1
    fi
    if ! curl -fsS "http://$ADDR/v1/invariants" | grep -q '"ok": *true'; then
        echo "FAIL: invariants dirty after sharded crash recovery" >&2
        curl -fsS "http://$ADDR/v1/invariants" >&2 || true
        exit 1
    fi

    echo "== shard smoke 3: recovered plane still admits intra + cross"
    "$TMP/drload" -addr "http://$ADDR" -workers 4 -requests 300 -seed 13 \
        -terminate-frac 0.1 -cross-frac 0.5 >"$TMP/load2.log" 2>&1
    kill -TERM "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
    echo "== OK (shard)"
    exit 0
fi

if [ "${1:-}" = "--failover" ]; then
    # In-process first: the full replica test matrix (streaming, lockstep
    # verification, semi-sync acks, promotion, fencing, re-bootstrap) and
    # the seeded primary-kill episodes, all race-enabled.
    echo "== replica unit tests under -race"
    go test -race -count 1 ./internal/replica/
    go run -race ./cmd/chaos -episode failover -episodes 1 -q
    echo "== chaos: 2 primary-kill failover episodes"
    go run ./cmd/chaos -episode failover -episodes 2 -seed 2 -q

    # End-to-end: a real two-node drserverd pair, kill -9 the primary
    # mid-burst, sub-second promotion, surviving load, fenced rejoin with
    # bit-identical fingerprints.
    TMP="$(mktemp -d)"
    A_PID=""
    B_PID=""
    LOAD_PID=""
    cleanup() {
        [ -n "$A_PID" ] && kill -9 "$A_PID" 2>/dev/null || true
        [ -n "$B_PID" ] && kill -9 "$B_PID" 2>/dev/null || true
        [ -n "$LOAD_PID" ] && kill -9 "$LOAD_PID" 2>/dev/null || true
        rm -rf "$TMP"
    }
    trap cleanup EXIT
    A=127.0.0.1:18084
    B=127.0.0.1:18085
    echo "== building drserverd + drload"
    go build -o "$TMP/drserverd" ./cmd/drserverd
    go build -o "$TMP/drload" ./cmd/drload

    wait_up() {
        i=0
        while ! curl -fsS "$1/healthz" >/dev/null 2>&1; do
            i=$((i + 1))
            if [ "$i" -ge 100 ]; then
                echo "FAIL: $1 did not come up; logs:" >&2
                cat "$TMP"/*.log >&2
                exit 1
            fi
            sleep 0.1
        done
    }

    echo "== failover smoke 1: boot primary + warm standby"
    "$TMP/drserverd" -addr "$A" -nodes 40 -seed 7 -data-dir "$TMP/a" \
        -fsync -1 -advertise "http://$A" >"$TMP/a.log" 2>&1 &
    A_PID=$!
    wait_up "http://$A"
    "$TMP/drserverd" -addr "$B" -nodes 40 -seed 7 -data-dir "$TMP/b" \
        -fsync -1 -advertise "http://$B" -replica-of "http://$A" \
        -failover-timeout 300ms >"$TMP/b.log" 2>&1 &
    B_PID=$!
    wait_up "http://$B"
    if ! curl -fsS "http://$B/readyz" | grep -q '"role": *"follower"'; then
        echo "FAIL: standby does not report the follower role" >&2
        curl -fsS "http://$B/readyz" >&2 || true
        exit 1
    fi

    echo "== failover smoke 2: kill -9 the primary mid-burst, promotion < 1s"
    "$TMP/drload" -addr "http://$A,http://$B" -workers 4 -requests 100000 \
        -seed 17 -terminate-frac 0.1 -retries 8 -retry-base 20ms \
        >"$TMP/load1.log" 2>&1 &
    LOAD_PID=$!
    sleep 1
    T0=$(date +%s%N)
    kill -9 "$A_PID"; wait "$A_PID" 2>/dev/null || true
    A_PID=""
    while ! curl -fsS "http://$B/readyz" 2>/dev/null | grep -q '"role": *"primary"'; do
        if [ $(( ($(date +%s%N) - T0) / 1000000 )) -ge 5000 ]; then
            echo "FAIL: standby never promoted; standby log:" >&2
            tail -40 "$TMP/b.log" >&2
            exit 1
        fi
        sleep 0.02
    done
    PROMO_MS=$(( ($(date +%s%N) - T0) / 1000000 ))
    echo "   promotion observed after ${PROMO_MS}ms"
    if [ "$PROMO_MS" -ge 1000 ]; then
        echo "FAIL: promotion took ${PROMO_MS}ms, budget is 1000ms" >&2
        exit 1
    fi
    kill "$LOAD_PID" 2>/dev/null || true
    wait "$LOAD_PID" 2>/dev/null || true
    LOAD_PID=""

    echo "== failover smoke 3: load survives by rotating to the new primary"
    # The first endpoint in the list is the dead primary: every worker's
    # first attempt gets connection-refused, rotates, and must succeed —
    # so failovers_survived is deterministically non-zero.
    "$TMP/drload" -addr "http://$A,http://$B" -workers 4 -requests 200 \
        -seed 21 -terminate-frac 0.2 -fault-frac 0 -retries 6 \
        >"$TMP/load2.log" 2>&1
    if ! grep -Eq 'failovers_survived=[1-9]' "$TMP/load2.log"; then
        echo "FAIL: drload survived no failovers against a dead first endpoint" >&2
        cat "$TMP/load2.log" >&2
        exit 1
    fi
    if ! curl -fsS "http://$B/metrics" | grep -q '^drqos_promotions_total 1'; then
        echo "FAIL: new primary does not count exactly one promotion" >&2
        curl -fsS "http://$B/metrics" | grep '^drqos_\(promotions\|role\)' >&2 || true
        exit 1
    fi

    echo "== failover smoke 4: ex-primary rejoins fenced, fingerprints bit-identical"
    "$TMP/drserverd" -addr "$A" -nodes 40 -seed 7 -data-dir "$TMP/a" \
        -fsync -1 -advertise "http://$A" -replica-of "http://$B" \
        -failover-timeout 0 >>"$TMP/a.log" 2>&1 &
    A_PID=$!
    wait_up "http://$A"
    # Catch-up: the rejoined follower must reach the new primary's journal
    # tip (term record included) before the fingerprints can agree.
    TIP=$(curl -fsS "http://$B/metrics" | grep '^drqos_journal_seq ' | awk '{print $2}')
    i=0
    while [ "$(curl -fsS "http://$A/metrics" 2>/dev/null | grep '^drqos_journal_seq ' | awk '{print $2}')" != "$TIP" ]; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "FAIL: rejoined ex-primary never caught up to seq $TIP; log:" >&2
            tail -40 "$TMP/a.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if ! curl -fsS "http://$A/readyz" | grep -q '"role": *"follower"'; then
        echo "FAIL: rejoined ex-primary did not demote to follower" >&2
        curl -fsS "http://$A/readyz" >&2 || true
        exit 1
    fi
    FP_A=$(curl -fsS "http://$A/v1/invariants" | sed -n 's/.*"fingerprint": *"\([0-9a-f]*\)".*/\1/p')
    FP_B=$(curl -fsS "http://$B/v1/invariants" | sed -n 's/.*"fingerprint": *"\([0-9a-f]*\)".*/\1/p')
    if [ -z "$FP_A" ] || [ "$FP_A" != "$FP_B" ]; then
        echo "FAIL: state fingerprints diverge after rejoin: a=$FP_A b=$FP_B" >&2
        exit 1
    fi
    echo "   fingerprints match: $FP_A"
    kill -TERM "$A_PID"; wait "$A_PID" 2>/dev/null || true
    A_PID=""
    kill -TERM "$B_PID"; wait "$B_PID" 2>/dev/null || true
    B_PID=""
    echo "== OK (failover)"
    exit 0
fi

if [ "${1:-}" = "--partition" ]; then
    # In-process first: the fault injector itself, the lease-fencing
    # matrix (symmetric + both asymmetric shapes, promote interlock), the
    # 2PC suspicion fast-path, and the seeded partition episodes — all
    # race-enabled.
    echo "== netchaos + lease + 2PC-suspicion tests under -race"
    go test -race -count 1 ./internal/netchaos/
    go test -race -count 1 -run 'TestLease|TestPromoteInterlock' ./internal/replica/
    go test -race -count 1 -run 'TestSuspectedShardFastFail503' ./internal/shard/
    echo "== chaos: 20 seeded partition episodes under -race"
    go run -race ./cmd/chaos -episode partition -episodes 20 -q

    # End-to-end: a real two-node pair with lease fencing on, the manual
    # promote interlock probed over HTTP, and the drload acked-mutation
    # ledger gated on zero loss across a kill + manual promote.
    TMP="$(mktemp -d)"
    A_PID=""
    B_PID=""
    cleanup() {
        [ -n "$A_PID" ] && kill -9 "$A_PID" 2>/dev/null || true
        [ -n "$B_PID" ] && kill -9 "$B_PID" 2>/dev/null || true
        rm -rf "$TMP"
    }
    trap cleanup EXIT
    A=127.0.0.1:18086
    B=127.0.0.1:18087
    echo "== building drserverd + drload"
    go build -o "$TMP/drserverd" ./cmd/drserverd
    go build -o "$TMP/drload" ./cmd/drload

    wait_up() {
        i=0
        while ! curl -fsS "$1/healthz" >/dev/null 2>&1; do
            i=$((i + 1))
            if [ "$i" -ge 100 ]; then
                echo "FAIL: $1 did not come up; logs:" >&2
                cat "$TMP"/*.log >&2
                exit 1
            fi
            sleep 0.1
        done
    }

    echo "== partition smoke 1: boot leased primary + manual-failover standby"
    "$TMP/drserverd" -addr "$A" -nodes 40 -seed 7 -data-dir "$TMP/a" \
        -fsync -1 -advertise "http://$A" -lease 200ms >"$TMP/a.log" 2>&1 &
    A_PID=$!
    wait_up "http://$A"
    # -failover-timeout 0: the standby never self-promotes; failover is
    # exercised through the manual promote endpoint and its interlock.
    "$TMP/drserverd" -addr "$B" -nodes 40 -seed 7 -data-dir "$TMP/b" \
        -fsync -1 -advertise "http://$B" -replica-of "http://$A" \
        -failover-timeout 0 -lease 200ms >"$TMP/b.log" 2>&1 &
    B_PID=$!
    wait_up "http://$B"
    if ! curl -fsS "http://$A/metrics" | grep -q '^drqos_replica_lease_lost 0'; then
        echo "FAIL: leased primary does not export drqos_replica_lease_lost" >&2
        curl -fsS "http://$A/metrics" | grep '^drqos_replica' >&2 || true
        exit 1
    fi

    echo "== partition smoke 2: promote interlock refuses while the primary is alive"
    CODE=$(curl -s -o "$TMP/promote1.json" -w '%{http_code}' \
        -X POST "http://$B/v1/admin/promote" -d '{}')
    if [ "$CODE" != "409" ]; then
        echo "FAIL: promote with a live primary answered $CODE, want 409" >&2
        cat "$TMP/promote1.json" >&2 || true
        exit 1
    fi
    if ! grep -q 'force' "$TMP/promote1.json"; then
        echo "FAIL: interlock refusal does not mention the force override" >&2
        cat "$TMP/promote1.json" >&2
        exit 1
    fi

    echo "== partition smoke 3: drload ledger run against the healthy pair"
    "$TMP/drload" -addr "http://$A,http://$B" -workers 4 -requests 300 \
        -seed 29 -terminate-frac 0.2 -fault-frac 0 -retries 6 \
        >"$TMP/load1.log" 2>&1
    if ! grep -q 'acked_lost=0' "$TMP/load1.log"; then
        echo "FAIL: healthy-pair drload run reported acked loss (or no ledger)" >&2
        cat "$TMP/load1.log" >&2
        exit 1
    fi

    echo "== partition smoke 4: kill -9 the primary, manual promote succeeds"
    kill -9 "$A_PID"; wait "$A_PID" 2>/dev/null || true
    A_PID=""
    # The interlock window (one lease) has to lapse before the standby
    # stops vouching for its primary.
    i=0
    while :; do
        CODE=$(curl -s -o "$TMP/promote2.json" -w '%{http_code}' \
            -X POST "http://$B/v1/admin/promote" -d '{}')
        [ "$CODE" = "200" ] && break
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "FAIL: manual promote never succeeded after the kill (last: $CODE)" >&2
            cat "$TMP/promote2.json" >&2 || true
            tail -30 "$TMP/b.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if ! curl -fsS "http://$B/readyz" | grep -q '"role": *"primary"'; then
        echo "FAIL: standby does not report the primary role after manual promote" >&2
        curl -fsS "http://$B/readyz" >&2 || true
        exit 1
    fi

    echo "== partition smoke 5: drload ledger run against the survivor, zero acked loss"
    "$TMP/drload" -addr "http://$A,http://$B" -workers 4 -requests 300 \
        -seed 31 -terminate-frac 0.2 -fault-frac 0 -retries 6 \
        >"$TMP/load2.log" 2>&1
    if ! grep -q 'acked_lost=0' "$TMP/load2.log"; then
        echo "FAIL: post-failover drload run reported acked loss (or no ledger)" >&2
        cat "$TMP/load2.log" >&2
        exit 1
    fi
    kill -TERM "$B_PID"; wait "$B_PID" 2>/dev/null || true
    B_PID=""
    echo "== OK (partition)"
    exit 0
fi

# -timeout is per test binary: internal/experiments runs full quick-scale
# reproductions (plus the worker-determinism replays) and needs more than
# the default 10m under the race detector on small machines.
# The allocation gates count mallocs, which race instrumentation adds to:
# they are skipped here by name and run uninstrumented just below, rather
# than carrying bounds loose enough for both.
echo "== go test -race ./..."
go test -race -timeout 45m -skip '^(TestEstablishAllocsBounded|TestFailLinkAllocsBounded)$' ./...

# The adaptation kernels, uninstrumented: event-for-event identity with the
# kernels they replaced (hashes recorded at those commits), and the
# allocation bounds that keep per-event maps and per-search arrays from
# coming back.
echo "== adaptation identity + allocation gates (no -race)"
go test -count 1 -run '^(TestAdaptationMatchesParent|TestEstablishAllocsBounded|TestFailLinkAllocsBounded)$' ./internal/manager/

# WriteJSON re-indents encoding/json's compact output itself; the seed corpus
# ran above as ordinary tests, this explores beyond it against json.Indent.
echo "== fuzz: WriteJSON's re-indenter against json.Indent (10s)"
go test -run '^$' -fuzz FuzzWriteJSON -fuzztime 10s ./internal/server

# bench/ is its own module (drqos/bench, replace drqos => ../), so ./...
# above does not descend into it — yet it compiles against internal/server,
# internal/shard, internal/journal and internal/replica. Vet and test it
# here so a refactor of those packages cannot break the benchmark unseen.
echo "== bench module: go vet + go test"
(cd bench && go vet ./... && go test ./...)
echo "== OK"
