GO ?= go
FUZZTIME ?= 20s
FUZZ_TARGETS := ./internal/flowtable:FuzzMatchLookup ./internal/flowtable:FuzzTableOps \
	./internal/flowtable:FuzzSubsumes ./internal/flowtable:FuzzPrefixContains \
	./internal/headerspace:FuzzClassifierOps ./internal/lp:FuzzSolverOps

# check is what CI's check job runs (followed by cover); lint, trace-smoke
# and fuzz are the other three CI jobs. Performance is measured by the one
# end-to-end benchmark BENCHMARK.json declares (cmd/applebench/run.sh),
# not by a make target: it gates counts and bytes, never wall time.
.PHONY: build test race vet lint bench-check fuzz cover check trace-smoke clean

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
# confinement, and lock-order contracts (see DESIGN.md §12), plus
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

# bench-check vets and tests cmd/applebench, the end-to-end benchmark. It
# is its own module (the benchmark builds from its own go.mod), so the
# root module's build, vet and test never compile it; this target is what
# catches a change to an internal API the benchmark calls.
bench-check:
	cd cmd/applebench && $(GO) vet ./... && $(GO) test ./...

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
# reconstructing a class's audit trail from the file just written. Both
# files are untracked build outputs (CI uploads them). The journal/metrics round-trip contracts themselves
# are pinned by TestChurnTrace* in internal/experiments.
trace-smoke:
	$(GO) run ./cmd/appletrace -journal churn_trace.jsonl -metrics churn_metrics.json
	$(GO) test -run 'TestChurnTrace' ./internal/experiments

# clean removes only what .gitignore lists: nothing it deletes is tracked.
clean:
	$(GO) clean ./...
	rm -f lint_findings.txt coverage.out churn_trace.jsonl churn_metrics.json
