# Repository verification and benchmark entry points. `make verify` is
# the tier-1 gate every PR must keep green.

GO ?= go

.PHONY: verify build test race loc bench bench-route bench-policy bench-locusd bench-partition bench-reqtrace smoke-partition paper

verify: ## build, vet, full tests, and race-test the concurrent packages
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/sm/... ./internal/mp/... ./internal/sim/... ./internal/locusd/... ./internal/policy/... ./internal/part/... ./internal/wire/... ./internal/reqtrace/... ./internal/store/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full race-detector pass over every package. Slower than the targeted
# list in `verify`; CI runs it as its own job.
race:
	$(GO) test -race ./...

# Non-test Go LoC of the serving stack, per package and in total:
# ROADMAP's "net non-test LoC going down" as one command.
LOC_PKGS = internal/locusd internal/policy internal/wire pkg/locusroute
loc:
	@for d in $(LOC_PKGS); do \
		printf '%-18s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done
	@printf '%-18s %6d\n' total $$(find $(LOC_PKGS) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

# Routing-kernel allocation benchmarks; compare against BENCH_route.json.
bench-route:
	$(GO) test -run '^$$' -bench 'BenchmarkRouteWire|BenchmarkSequential' -benchmem -benchtime 2s . ./internal/route/

# Policy-chain element benchmarks (enabled vs disabled); compare against
# BENCH_policy.json — the disabled rows must stay ~0 ns/op, 0 allocs/op.
bench-policy:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1s ./internal/policy/

# Transport comparison: boots locusd with both listeners and sweeps the
# JSON and binary protocols with cmd/locusload; compare against
# BENCH_locusd.json. Takes ~2 minutes (two 6-step sweeps + warmups).
bench-locusd:
	$(GO) build -o /tmp/locusd-bench ./cmd/locusd
	$(GO) build -o /tmp/locusload-bench ./cmd/locusload
	/tmp/locusd-bench -addr 127.0.0.1:18347 -listen-bin 127.0.0.1:18348 \
		-bench bnrE -shards 4 -batch-window 1ms -max-batch 64 \
		-max-in-flight 512 > /tmp/locusd-bench.log 2>&1 & \
	trap "kill -TERM $$! 2>/dev/null" EXIT; \
	sleep 3; \
	/tmp/locusload-bench -addr 127.0.0.1:18347 -proto json \
		-sweep 1000,2000,4000,6000,8000,12000 -duration 4s -warmup 1s -conns 32; \
	/tmp/locusload-bench -addr 127.0.0.1:18348 -proto bin \
		-sweep 1000,2000,4000,6000,8000,12000 -duration 4s -warmup 1s -conns 32

# Request-tracing overhead benchmarks; compare against
# BENCH_reqtrace.json — the disabled row must stay under 5 ns/op and
# 0 allocs/op (the acceptance budget for leaving the hooks compiled in).
bench-reqtrace:
	$(GO) test -run '^$$' -bench Span -benchmem -benchtime 3s ./internal/reqtrace/

# Partition-parallel routing benchmarks on the 10x-scaled bnrE preset;
# compare against BENCH_partition.json (record GOMAXPROCS with the
# numbers — partition speedup needs real cores).
bench-partition:
	$(GO) test -run '^$$' -bench 'Scaled' -benchmem -benchtime 1x ./internal/part/

# CI smoke for the partition backend: partitions=1 must reproduce the
# sequential route hash exactly, partitions=4 must be deterministic
# across runs, and the observed wall-clock ratio is left in
# /tmp/partition-smoke.txt as a build artifact.
smoke-partition:
	$(GO) run ./cmd/paper -table partition -partitions 1 | tee /tmp/partition-p1.txt
	$(GO) run ./cmd/paper -table partition -partitions 4 | tee /tmp/partition-p4a.txt
	$(GO) run ./cmd/paper -table partition -partitions 4 > /tmp/partition-p4b.txt
	grep -q 'partitioned p=1 .*yes *$$' /tmp/partition-p1.txt
	h4a=$$(grep 'partitioned p=4' /tmp/partition-p4a.txt | awk '{print $$(NF-1)}'); \
	h4b=$$(grep 'partitioned p=4' /tmp/partition-p4b.txt | awk '{print $$(NF-1)}'); \
	test -n "$$h4a" && test "$$h4a" = "$$h4b"
	{ echo "partition smoke $$(date -u +%Y-%m-%dT%H:%M:%SZ)"; \
	  grep -h 'sequential\|partitioned' /tmp/partition-p1.txt /tmp/partition-p4a.txt; } \
	  > /tmp/partition-smoke.txt
	@echo "smoke-partition: OK (artifact at /tmp/partition-smoke.txt)"

# Full paper-table benchmarks (several minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Regenerate every paper table.
paper:
	$(GO) run ./cmd/paper -all
