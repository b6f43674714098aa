.PHONY: check build test race bench bench-json bench-smoke bench-e2e loadtest overload-smoke forecast-smoke shard-smoke failover-smoke partition-smoke

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
# adds must stay two fsyncs and a loopback round trip — no poll timer)
# and the paper-reproduction benchmarks at the repo root.
bench:
	go test -run xxx -bench 'BenchmarkManager' -benchmem ./internal/manager/
	go test -run xxx -bench 'BenchmarkBackupRoute' -benchmem ./internal/routing/
	go test -run xxx -bench 'BenchmarkServerEstablish' -benchmem ./internal/server/
	go test -run xxx -bench 'BenchmarkReplicatedEstablish' -benchmem ./internal/replica/
	go test -run xxx -bench 'BenchmarkP2' -benchmem ./internal/stats/

# Record the full suite into BENCH_<date>.json / run the CI smoke pass.
# Compare two recordings with: scripts/bench.sh --compare old.json new.json
bench-json:
	./scripts/bench.sh

bench-smoke:
	./scripts/bench.sh --quick

# The repository benchmark (BENCHMARK.json): builds drserverd and drbench
# from this checkout and runs all four workloads, timed then traced, with
# the correctness gate. Exits non-zero on any correctness failure.
bench-e2e:
	bash bench/run.sh

# Overload control plane: in-process episodes under -race, then a live 4x
# over-capacity burst drill against a real drserverd.
overload-smoke:
	./scripts/check.sh --overload

# Live analytic control plane: forecast unit tests under -race, then a
# closed-loop drload run that gates the online Markov model's predicted
# mean bandwidth within 10% of the measurement.
forecast-smoke:
	./scripts/check.sh --forecast

# Sharded admission plane: partition/2PC tests under -race, mid-2PC kill
# episodes, then a live drserverd -shards 4 kill -9 recovery smoke.
shard-smoke:
	./scripts/check.sh --shard

# Primary/backup replication: replica tests under -race, seeded
# primary-kill episodes, then a live two-node pair with a kill -9
# mid-burst, sub-second promotion and a fenced bit-identical rejoin.
failover-smoke:
	./scripts/check.sh --failover

# Partition tolerance: netchaos fault injection, lease-fenced replication
# and timeout-hardened 2PC under -race, then a live pair with the manual
# promote interlock and a drload ledger run gated on zero acked loss.
partition-smoke:
	./scripts/check.sh --partition

# End-to-end load test: drserverd + drload (10k requests, 8 workers).
loadtest:
	go build -o /tmp/drserverd ./cmd/drserverd
	go build -o /tmp/drload ./cmd/drload
	/tmp/drserverd -addr 127.0.0.1:18080 & \
	pid=$$!; sleep 2; \
	/tmp/drload -addr http://127.0.0.1:18080 -workers 8 -requests 10000; rc=$$?; \
	kill -TERM $$pid; wait $$pid; exit $$rc
