GO ?= go
BENCHTIME ?= 5x
FUZZTIME ?= 20s
FUZZ_TARGETS := ./internal/flowtable:FuzzMatchLookup ./internal/flowtable:FuzzTableOps \
	./internal/flowtable:FuzzSubsumes ./internal/flowtable:FuzzPrefixContains \
	./internal/headerspace:FuzzClassifierOps
SHARD_CLASSES ?= 200000
SHARD_COUNTS ?= 1,2,4,8
SHARD_MIN_SPEEDUP ?= 0
POLICY_MIN_COMPILES ?= 2000

.PHONY: build test race vet lint bench bench-check bench-dp bench-shard bench-policy reopt fuzz cover check trace-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs applelint (cmd/applelint), the ten project-specific static
# analyzers proving the concurrency, callback, determinism, transaction,
# confinement, and lock-order contracts (see DESIGN.md §12 and §17), plus
# the gofmt formatting gate. Findings are duplicated into lint_findings.txt
# (the artifact CI uploads), and the whole suite must finish inside the
# 30s wall-clock budget — any diagnostic, unformatted file, or budget
# overrun fails the target.
lint:
	$(GO) run ./cmd/applelint -report lint_findings.txt -budget 30s .
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; \
	fi

# bench runs the Table V engine benchmarks and refreshes BENCH_lp.json,
# the machine-readable LP hot-path report (ns/op, pivots, warm-start hits,
# speedup vs the recorded seed baselines).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkTableV' -benchtime $(BENCHTIME) .
	$(GO) run ./cmd/benchlp -out BENCH_lp.json

# bench-check vets and tests cmd/applebench, the end-to-end benchmark. It
# is its own module (the benchmark builds from its own go.mod), so the
# root module's build, vet and test never compile it; this target is what
# catches a change to an internal API the benchmark calls.
bench-check:
	cd cmd/applebench && $(GO) vet ./... && $(GO) test ./...

# bench-dp refreshes BENCH_dataplane.json, the data-plane lookup report
# (compiled tuple-space matcher vs the linear TCAM scan at 1/100/10k/100k
# rules, allocs per lookup, parallel scaling, and the 3-table Process
# walk). The -min-speedup flag doubles as the CI regression smoke: the
# target fails if the compiled matcher is not at least 10x the linear
# scan on the 10k-rule table.
bench-dp:
	$(GO) run ./cmd/benchdp -out BENCH_dataplane.json -min-speedup 10

# bench-shard refreshes BENCH_scale.json, the regional-sharding scale
# report: the same synthetic FatTree class workload admitted through a
# ShardedController at increasing shard counts, with classes/s, heap per
# shard, and the cross-shard interference audit for every run. Since
# table publication and transaction pre-images became O(delta), one
# core gains little from sharding (DESIGN.md §16), so the speedup is
# reported, not gated, by default; -min-speedup remains for whoever
# measures a multi-core Workers>1 grid.
# SHARD_CLASSES/SHARD_COUNTS/SHARD_MIN_SPEEDUP tune the run.
bench-shard:
	$(GO) run ./cmd/benchshard -classes $(SHARD_CLASSES) -shards $(SHARD_COUNTS) -min-speedup $(SHARD_MIN_SPEEDUP) -out BENCH_scale.json

# bench-policy refreshes BENCH_policy.json, the policy engine v2 report:
# hierarchy compile throughput (org/tenant/class layers with merge and
# override down to effective chains) and the four-topology anti-affinity
# audit (objective overhead of the IDS/Proxy exclusion vs the flat solve,
# engine solve times, and the interference-freedom counters). The built-in
# gates double as the CI regression smoke: the target fails on any
# co-located excluded pair, any controller audit violation, or compile
# throughput below POLICY_MIN_COMPILES/sec.
bench-policy:
	$(GO) run ./cmd/benchpolicy -out BENCH_policy.json -min-compiles $(POLICY_MIN_COMPILES)

# reopt replays the continuous re-optimization loop (warm-started
# parametric LP + make-before-break rule transactions) over the diurnal
# traffic series on Internet2 and GEANT, writing BENCH_reopt.json. The
# built-in gates fail the target unless warm re-solves pivot strictly
# less than cold solves, steady-state rule churn stays below a full
# reinstall, and every audited commit is violation-free.
reopt:
	$(GO) run ./cmd/applereopt -out BENCH_reopt.json

# fuzz runs each package:Target pair of FUZZ_TARGETS for FUZZTIME. Go's
# fuzzer accepts one package and one -fuzz pattern per invocation, so
# targets run back to back; any counterexample is minimized into the
# package's testdata/fuzz/.
fuzz:
	@for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt##*:}; \
		echo "--- fuzz $$pkg $$t ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# cover writes a whole-repo coverage profile and prints the per-function
# summary (the artifact CI uploads).
cover:
	$(GO) test -cover -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

check: build vet lint test race bench-check

# trace-smoke runs a traced churn replay end to end (cmd/appletrace) and
# writes the observability artifacts — the virtual-time journal
# (churn_trace.jsonl) and the unified metrics snapshot
# (churn_metrics.json) — then proves the journal round-trips by
# reconstructing a class's audit trail from the file just written. The
# journal/metrics round-trip contracts themselves are pinned by
# TestChurnTrace* in internal/experiments.
trace-smoke:
	$(GO) run ./cmd/appletrace -journal churn_trace.jsonl -metrics churn_metrics.json
	$(GO) run ./cmd/appletrace -shards 4 -journal shard_trace.jsonl -metrics shard_metrics.json
	$(GO) test -run 'TestChurnTrace' ./internal/experiments

clean:
	$(GO) clean ./...
	rm -f lint_findings.txt BENCH_lp.json BENCH_dataplane.json BENCH_reopt.json coverage.out churn_trace.jsonl churn_metrics.json shard_trace.jsonl shard_metrics.json
