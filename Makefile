.PHONY: check build test race bench bench-smoke bench-e2e loadtest recovery-smoke overload-smoke forecast-smoke shard-smoke failover-smoke partition-smoke

# Full tier-1 verification: build + vet + race-enabled tests.
check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Hot-path baselines for the admission service (internal/manager:
# BenchmarkManagerChurn/standing=100|2000 — an establish plus a
# terminate-oldest at a level population, est/term p50 reported beside
# ns/op — and BenchmarkManagerFailRepair/standing=2000; internal/routing:
# BenchmarkBackupRoute, one backup search on a reused scratch, ending in the
# disjoint BFS or in the Dijkstra fallback), the
# command loop around it (an establish+terminate pair over 100 and over 2000
# standing connections: what the loop adds must not grow with the population),
# the same pair with every ack waiting on a warm standby (what replication
# adds must stay two fsyncs and a loopback round trip — no poll timer, no
# hold; ack_wait_us_p50 beside ns/op is the daemon's own figure for it),
# the answer writer (BenchmarkWriteJSON: an establish answer, one /v1/stats,
# a 4-shard /v1/stats), the sharded front end in process
# (BenchmarkFrontEnd: /v1/stats, /v1/shards and an establish over 300
# standing connections on the tier topology),
# the one latency histogram every latency report reads (BenchmarkLatency:
# one Observe, one allocation-free p50/p90/p99 read)
# and the paper-reproduction benchmarks at the repo root.
bench:
	go test -run xxx -bench 'BenchmarkManager' -benchmem ./internal/manager/
	go test -run xxx -bench 'BenchmarkBackupRoute' -benchmem ./internal/routing/
	go test -run xxx -bench 'BenchmarkServerEstablish|BenchmarkWriteJSON' -benchmem ./internal/server/
	go test -run xxx -bench 'BenchmarkFrontEnd' -benchmem ./internal/shard/
	go test -run xxx -bench 'BenchmarkReplicatedEstablish' -benchmem ./internal/replica/
	go test -run xxx -bench 'BenchmarkLatency' -benchmem ./internal/stats/

# CI's benchmark smoke: every benchmark once, the ones one iteration cannot
# exercise again at enough iterations, then drbench's four workloads for two
# seconds each. bench/run.sh exits non-zero on any correctness failure (acked
# ledger, invariants, population, standby fingerprint).
bench-smoke:
	go test -run '^$$' -bench . -benchmem -benchtime 1x -count 1 ./...
	# One iteration is one establish; 200 recycle the kernels' scratch, the slot free list and a few link failures.
	go test -run '^$$' -bench 'BenchmarkManager' -benchmem -benchtime 200x -count 1 ./internal/manager/
	# The same through the command loop: at 200 the 2 000-connection slot table cycles through it.
	go test -run '^$$' -bench 'BenchmarkServerEstablish' -benchmem -benchtime 200x -count 1 ./internal/server/
	# One iteration of a backup search is one cold scratch; 200 reuse it.
	go test -run '^$$' -bench 'BenchmarkBackupRoute' -benchmem -benchtime 200x -count 1 ./internal/routing/
	# One iteration of an answer is one cold pooled buffer; 200 reuse it.
	go test -run '^$$' -bench 'BenchmarkWriteJSON' -benchmem -benchtime 200x -count 1 ./internal/server/
	go test -run '^$$' -bench 'BenchmarkFrontEnd' -benchmem -benchtime 200x -count 1 ./internal/shard/
	# One iteration cannot form a group-commit batch; 64 parallel ones can.
	go test -run '^$$' -bench 'BenchmarkJournalAppend' -benchmem -benchtime 64x -count 1 ./internal/journal/
	bash bench/run.sh --workload churn-highpop --seed 1 --seconds 2 --trace 0
	bash bench/run.sh --workload durable-lowpop --seed 1 --seconds 2 --trace 0
	bash bench/run.sh --workload shard-cross --seed 1 --seconds 2 --trace 0
	bash bench/run.sh --workload replica-pair --seed 1 --seconds 2 --trace 0

# The repository benchmark (BENCHMARK.json): builds drserverd and drbench
# from this checkout and runs all four workloads, timed then traced, with
# the correctness gate. Exits non-zero on any correctness failure.
bench-e2e:
	bash bench/run.sh

# The subsystem smokes: each is build + vet, the in-process episodes of one
# family and its subsystem's tests under -race, then its row of TestProcess
# (cmd/drserverd/process_test.go: real drserverd processes, SIGKILLed,
# SIGTERMed and restarted). Overload and forecast have no process row.

# Crash-restart episodes; row durable: SIGKILL quiet and mid-burst, SIGTERM,
# restart from the same data dir.
recovery-smoke:
	./scripts/check.sh --recovery

# Overload episodes, shedding, lane-priority and readiness tests.
overload-smoke:
	./scripts/check.sh --overload

# Forecast tests (the closed-loop model-vs-measured agreement among them),
# and the -forecast-* flags reaching the live model over HTTP.
forecast-smoke:
	./scripts/check.sh --forecast

# Partition/2PC tests and mid-2PC kill episodes; row sharded: SIGKILL a
# four-shard daemon, per-shard fingerprints equal after the restart.
shard-smoke:
	./scripts/check.sh --shard

# Replica tests and primary-kill episodes; row pair: promotion within 1 s of
# the primary's SIGKILL, fenced rejoin at the same fingerprint.
failover-smoke:
	./scripts/check.sh --failover

# netchaos, lease and 2PC-suspicion tests and partition episodes; row
# pair-manual: the promote interlock's 409, then 200 once the lease lapses.
partition-smoke:
	./scripts/check.sh --partition

# End-to-end load test: drserverd + drload (10k requests, 8 workers), once
# the daemon answers /readyz (up to 10 s; its log is shown if it never does).
loadtest:
	go build -o /tmp/drserverd ./cmd/drserverd
	go build -o /tmp/drload ./cmd/drload
	/tmp/drserverd -addr 127.0.0.1:18080 >/tmp/drserverd.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 100); do curl -fsS http://127.0.0.1:18080/readyz >/dev/null 2>&1 && break; sleep 0.1; done; \
	if ! curl -fsS http://127.0.0.1:18080/readyz >/dev/null 2>&1; then \
		echo "loadtest: drserverd did not become ready; log:" >&2; cat /tmp/drserverd.log >&2; \
		kill -9 $$pid 2>/dev/null; exit 1; \
	fi; \
	/tmp/drload -addr http://127.0.0.1:18080 -workers 8 -requests 10000; rc=$$?; \
	kill -TERM $$pid; wait $$pid; exit $$rc
