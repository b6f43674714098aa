.PHONY: check build test race bench bench-smoke bench-e2e

# Full tier-1 verification: build + vet + race-enabled tests, the episode
# soak, the fuzzes, the full-scale experiments diff and the bench module
# (see the header of scripts/check.sh).
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
# disjoint BFS or in the Dijkstra fallback, and BenchmarkBoundedFlood*, the
# flood on a fresh and on a reused scratch, under one constant allowance and
# under random ones), the
# command loop around it (an establish+terminate pair over 100 and over 2000
# standing connections: what the loop adds must not grow with the population),
# the same pair with every ack waiting on a warm standby, from one client
# and from two (what replication adds must stay two fsyncs and two loopback
# writes on one stream — no poll timer, no hold — and two clients' records
# must share it; ack_wait_us_p50 beside ns/op is the daemon's own figure),
# the answer writer (BenchmarkWriteJSON: an establish answer, one /v1/stats,
# a 4-shard /v1/stats), the sharded front end in process
# (BenchmarkFrontEnd: /v1/stats, /v1/shards and an establish over 300
# standing connections on the tier topology),
# the one latency histogram every latency report reads (BenchmarkLatency:
# one Observe, one allocation-free p50/p90/p99 read)
# and the paper-reproduction benchmarks at the repo root.
bench:
	go test -run xxx -bench 'BenchmarkManager' -benchmem ./internal/manager/
	go test -run xxx -bench 'BenchmarkBackupRoute|BenchmarkBoundedFlood' -benchmem ./internal/routing/
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
	# One iteration is one establish; 200 recycle the kernels' scratch and slot sets, renumber the slot table at standing=100,
	# and run BenchmarkManagerChurn/standing=2000's set unions at population (make bench runs it at full length) and a few link failures.
	go test -run '^$$' -bench 'BenchmarkManager' -benchmem -benchtime 200x -count 1 ./internal/manager/
	# The same through the command loop: at 200 the 2 000-connection slot table cycles through it.
	go test -run '^$$' -bench 'BenchmarkServerEstablish' -benchmem -benchtime 200x -count 1 ./internal/server/
	# One iteration of a backup search or a flood is one cold scratch; 200 reuse it.
	go test -run '^$$' -bench 'BenchmarkBackupRoute|BenchmarkBoundedFlood' -benchmem -benchtime 200x -count 1 ./internal/routing/
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
