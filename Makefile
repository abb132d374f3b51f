# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), including `make bench-run` for the bench set,
# so the bench patterns live only here.

# bash + pipefail so a failing `go test | tee` pipeline aborts the
# recipe instead of silently feeding benchjson a truncated bench log
# (which would rewrite the baseline with benchmarks missing — and a
# benchmark absent from the baseline is ungated).
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# Where bench-run writes the raw `go test -bench` log (CI passes
# BENCH_OUT=bench.out).
BENCH_OUT ?= /tmp/raven-bench.out

.PHONY: test loc stress stress-spill docs-check bench-run bench-baseline benchcmp bench-e2e bench-pairs

test:
	go build ./... && go test ./...

# loc prints the non-test Go line count — `wc -l` over every *.go file git
# tracks or would add, _test.go files excluded — per package directory and
# for the whole repository: the number simplicity changes report.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub(/\/[^/]*$$/, "", d)) d = "."; n[d] += $$1; sum += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", sum }'

# docs-check enforces the documentation gates without a staticcheck
# install: every package carries exactly one package comment (CI also
# runs staticcheck with ST1000 enabled, see staticcheck.conf), every
# ```go snippet in README.md compiles inside the module, and every *.md
# path named in a Go comment, README.md or docs/ is a file in the
# repository. CI runs the same command in the lint job.
docs-check:
	go run ./cmd/docscheck

# stress runs the robustness suite — cancellation storms, injected
# panics/errors at every execution boundary, overload rejection, drain
# semantics — under the race detector. Every test registers the
# goroutine-leak checker (internal/testfix.LeakCheck), so a worker or
# waiter that outlives its query fails here. CI runs the same command.
stress:
	go test -race -count=1 \
		-run 'Cancel|Deadline|Overload|Fault|Injected|Poisoned|Storm|Drain|Admit|Panic|Leak|SessionsReturn|StatusFor|Serve' \
		./...

# stress-spill forces every pipeline breaker out of core: the spill
# differential, fault-injection and leak tests run under the race
# detector with the tiny in-test budgets, so disk-backed execution gets
# the same robustness bar as the in-memory paths. CI runs the same
# command after `make stress`.
stress-spill:
	go test -race -count=1 -run 'Spill|MemoryBudget' ./...

# bench-run runs the CI bench set into $(BENCH_OUT): headline figure
# benches + parallel/dict/top-k/serving trajectory benches at one
# iteration, the deterministic relational hot-path micro-benches at 20
# iterations (their allocs/op are gated), and the external-sort spill
# bench whose spill_overhead ratio is gated absolutely.
bench-run:
	go test -run xxx -benchmem \
		-bench 'Fig7|ParallelSpeedup|JoinAggParallelSpeedup|StringHeavyJoinEncode|TopKOverPredict|ConcurrentServing' \
		-benchtime=1x . | tee $(BENCH_OUT)
	go test -run xxx -benchmem \
		-bench 'Filter|ProjectLiteral|ChunkedScan' \
		-benchtime=20x ./internal/relational | tee -a $(BENCH_OUT)
	go test -run xxx -benchmem \
		-bench 'ExternalSortSpill' \
		-benchtime=1x ./internal/relational | tee -a $(BENCH_OUT)

# bench-baseline re-runs the CI bench set and rewrites
# bench/baseline.json — the deliberate way to move the perf-regression
# gate after an accepted perf change. Commit the refreshed file.
bench-baseline: bench-run
	go run ./cmd/benchjson < $(BENCH_OUT) > bench/baseline.json
	@echo "bench/baseline.json refreshed — review and commit it"

# benchcmp gates a fresh report against the committed baseline, exactly
# like CI does: ns/op may not regress more than 25% (same-host reports
# only), hot-path allocs/op may not grow. NEW=BENCH_<sha>.json
benchcmp:
	go run ./cmd/benchcmp -baseline bench/baseline.json -new "$(NEW)"

# bench-e2e runs the repository benchmark (bench/e2e, declared to the
# driver by BENCHMARK.json): all four workloads, untraced then traced,
# wall-clock end-to-end and per-layer metrics. It builds into .bench_build/
# and waits for every workload process it starts. Compare two reports with
# `go run ./bench/e2e -compare a.json b.json`.
bench-e2e:
	bash bench/e2e/run.sh -out .bench_build/report.json

# bench-pairs compares the working tree with a parent revision on one
# bench/e2e workload the way the benchmark gate does: PAIRS alternating
# pairs of foreground runs, the four gated metrics of every run and their
# medians, and a non-zero exit if a run fails or leaves a process behind.
# PARENT=<rev> WORKLOAD=<name> PAIRS=4 SEED=1
PAIRS ?= 4
SEED ?= 1
bench-pairs:
	bash bench/pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)"
