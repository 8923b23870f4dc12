# Repository verification and benchmark entry points. `make verify` is
# the tier-1 gate every PR must keep green.

GO ?= go

.PHONY: verify build test race loc serve-golden part-golden bench bench-layers layers-exact smoke-partition paper profile-paper profile-route

verify: ## build, vet, full tests, and race-test the concurrent packages
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/sm/... ./internal/mp/... ./internal/sim/... ./internal/locusd/... ./internal/policy/... ./internal/part/... ./internal/route/... ./internal/wire/... ./internal/reqtrace/... ./internal/store/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full race-detector pass over every package. Slower than the targeted
# list in `verify`; CI runs it as its own job.
race:
	$(GO) test -race ./...

# Non-test Go LoC of the serving stack, per package and in total, then
# of everything outside benchmark/ (the figure ROADMAP item 11 tracks):
# ROADMAP's "net non-test LoC going down" as one command.
LOC_PKGS = internal/locusd internal/policy internal/wire pkg/locusroute
loc:
	@for d in $(LOC_PKGS); do \
		printf '%-18s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done
	@printf '%-18s %6d\n' total $$(find $(LOC_PKGS) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	@printf '%-18s %6d\n' 'all but benchmark/' $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' | xargs cat | wc -l)

# The serving path's golden digests: two fixed-seed request streams
# driven in-process, over /v1 JSON and over the binary protocol, at 1 and
# 4 shards, with and without EDF + the result cache, each hashed into
# one sha256 pinned in internal/locusd/golden_test.go — what the paper
# tables' sha256 is to the simulators. ~10 s under -race on 2 cores.
serve-golden:
	$(GO) test -race -count=1 -run TestServingGolden ./internal/locusd/

# The partitioned router's golden digests: the Result, cost array and
# every path of 27 fixed runs (bnrE and MDC at parts 2/3/4/8, seeds 1-3;
# the 10x preset in two shuffled wire orders; one negotiated run), pinned
# in internal/part/golden_test.go. Then the boundary-wire conflict graph
# against a one-by-one serial reference at GOMAXPROCS 1/2/8, five times.
# All under -race. ~30 s on 2 cores.
part-golden:
	$(GO) test -race -count=1 -run TestPartitionedGolden ./internal/part/
	$(GO) test -race -count=5 -run TestConflictOrderMatchesSerial ./internal/part/

# The repository benchmark (BENCHMARK.json, benchmark/README.md) is the
# one perf surface: `bench` measures the four workloads end to end,
# `bench-layers` runs the per-layer probes and the traced replay. Judge
# two recordings with `go run ./benchmark -compare a.jsonl b.jsonl`.
bench:
	$(GO) run ./benchmark

bench-layers:
	$(GO) run ./benchmark -trace 1

# The rows benchmark/layers flags `exact` — counts, bytes and simulated
# time that are pure functions of the seed-1 circuits — must equal
# .github/layers_exact_quick.json bit for bit (tolerance zero; a missing
# or extra exact row fails too). A change that moves one updates the
# file and says why in CHANGES.md. The store.* rows there are quick-mode
# values; a full run's differ. ~25 s.
layers-exact:
	$(GO) run ./benchmark -trace 1 -quick -workload serve_read > /tmp/layers-exact.jsonl
	python3 -c 'import json, sys; \
	  want = json.load(open(".github/layers_exact_quick.json")); \
	  report = json.loads(open("/tmp/layers-exact.jsonl").readline()); \
	  got = {k: m["median"] for k, m in report["per_layer"].items() if m.get("exact")}; \
	  bad = {k: (want.get(k), got.get(k)) for k in sorted(want.keys() | got.keys()) if want.get(k) != got.get(k)}; \
	  sys.exit("layers-exact: rows differ, {name: (want, got)}: %s" % bad if bad else 0)'
	@echo "layers-exact: OK"

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

# Regenerate every paper table.
paper:
	$(GO) run ./cmd/paper -all

# Where `paper -all` spends its CPU: the serial driver under the CPU
# profiler, top 25 by cumulative time. The figures ROADMAP and CHANGES.md
# quote for the paper_sim workload come from this.
profile-paper:
	$(GO) build -o /tmp/paper-profile ./cmd/paper
	/tmp/paper-profile -all -par 1 -cpuprofile /tmp/paper-profile.prof > /dev/null
	$(GO) tool pprof -top -cum -nodecount 25 /tmp/paper-profile /tmp/paper-profile.prof

# Where batch_route spends its CPU: the 4-partition route of the 10x
# bnrE preset (BenchmarkPartitionedScaled/parts-4, the workload's circuit
# and schedule) under the CPU profiler, top 25 by cumulative time. The
# benchmark line also reports cpu-ns/op and busy-cpus (process CPU over
# wall, from getrusage): how many cores the partition schedule keeps
# busy. The figures CHANGES.md quotes for the batch_route workload come
# from this.
profile-route:
	$(GO) test -run '^$$' -bench 'PartitionedScaled/parts-4$$' -benchmem -cpuprofile /tmp/route-profile.prof -o /tmp/route-profile.test ./internal/part/
	$(GO) tool pprof -top -cum -nodecount 25 /tmp/route-profile.test /tmp/route-profile.prof
