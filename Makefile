# feasregion — build / test / benchmark / experiment targets.

GO ?= go

.PHONY: all build vet test race test-race test-short bench bench-json bench-admit bench-degrade bench-cluster bench-des bench-priority profile-des docs-check loc experiments experiments-quick experiments-md5 examples fuzz verify clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race: test-race

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem .

# Metrics-overhead benchmarks (admit hot path, instruments off vs on)
# as machine-readable go-test JSON for regression tracking.
bench-json:
	$(GO) test -run '^$$' -bench 'Metrics(Off|On)' -benchmem -count 3 -json . > BENCH_metrics.json

# Admission hot-path scaling benchmarks (uncontended ns/op +
# allocs/op, 1/4/16/64/128/256-goroutine curves, lock-free reject path)
# as go-test JSON. For a before/after against an older commit, run
# bash bench/pairs.sh <commit>.
bench-admit:
	$(GO) test -run '^$$' -bench '^BenchmarkAdmit' -benchmem -count 3 -json . > BENCH_admit.json

# Quality-cascade benchmarks (full-quality admit vs degraded fallback
# vs mandatory-only lock-free reject) as go-test JSON; the degraded
# path must stay at 0 allocs/op.
bench-degrade:
	$(GO) test -run '^$$' -bench '^BenchmarkDegrade' -benchmem -count 3 -json . > BENCH_degrade.json

# Cluster routing hot-path benchmarks (Route + release for all three
# policies at 1/16/64 goroutines over an 8-replica fleet) as go-test
# JSON; the routing path must stay at 0 allocs/op.
bench-cluster:
	$(GO) test -run '^$$' -bench '^BenchmarkClusterRoute' -benchmem -count 3 -json . > BENCH_cluster.json

# Event-core benchmarks (the ladder calendar: self-clocking timer
# streams, schedule/drain, cancel-heavy, near-future holds; alarms vs
# the calendar at 4 and 16 self-re-arming streams) as go-test JSON.
# Every row must report 0 allocs/op; `bash bench/pairs.sh <commit>` is
# the end-to-end before/after.
bench-des:
	$(GO) test -run '^$$' -bench '^BenchmarkDes' -benchmem -count 3 -json . > BENCH_des.json

# Priority-assignment benchmarks (offline OPA search cost at 8/32/128
# tasks, online admitter steady-state TryAdmit) as go-test JSON; the
# admit path must stay at 0 allocs/op.
bench-priority:
	$(GO) test -run '^$$' -bench '^BenchmarkPriority' -benchmem -count 3 -json . > BENCH_priority.json

# CPU-profile the full-scale trace replay (10M+ records through region
# admission, twice); inspect with `go tool pprof cpu_replay.prof`.
profile-des:
	$(GO) run ./cmd/experiments -run replay -cpuprofile cpu_replay.prof -memprofile mem_replay.prof

# Documentation invariants: every package documented, every exported
# identifier of the public API documented, every relative markdown link
# resolving, and every `pkg.Ident` named in README/DESIGN/THEORY/
# EXPERIMENTS code spans existing in that package — plus go vet's
# doc-adjacent analyzers.
docs-check:
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck

# Net non-test Go lines in the module (the build output under
# .bench_build excluded): the tracked size of the tree.
loc:
	@find . -path ./.git -prune -o -path ./.bench_build -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# Regenerates every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments -csv results

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Checks the output of every experiment without a timing column against
# the md5s pinned in cmd/experiments/testdata (taken on amd64): the
# -quick scale (one replication) in quick.md5, the default full scale
# (three replications) in full.md5. A change that must not move
# decisions keeps every line of both.
experiments-md5:
	$(GO) build -o .bench_build/experiments ./cmd/experiments
	@for x in $$(awk '{print $$2}' cmd/experiments/testdata/quick.md5); do \
		echo "$$(.bench_build/experiments -run $$x -quick | md5sum | cut -d' ' -f1)  $$x"; \
	done | diff cmd/experiments/testdata/quick.md5 -
	@for x in $$(awk '{print $$2}' cmd/experiments/testdata/full.md5); do \
		echo "$$(.bench_build/experiments -run $$x | md5sum | cut -d' ' -f1)  $$x"; \
	done | diff cmd/experiments/testdata/full.md5 -

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webserver
	$(GO) run ./examples/tsce
	$(GO) run ./examples/taskgraph
	$(GO) run ./examples/overload
	$(GO) run ./examples/httpserver
	$(GO) run ./examples/cluster

# Short fuzzing passes over the robustness-sensitive parsers and math.
fuzz:
	$(GO) test -fuzz FuzzImportCSV -fuzztime 30s ./internal/workload/
	$(GO) test -fuzz FuzzTraceReader -fuzztime 30s ./internal/workload/
	$(GO) test -fuzz FuzzStageDelayFactor -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzAlphaBounds -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzQualitySearch -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzGraphAdmissionSound -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzQuantile -fuzztime 30s ./internal/stats/
	$(GO) test -fuzz FuzzAlarmDifferential -fuzztime 30s ./internal/des/
	$(GO) test -fuzz FuzzStateMatchesLedger -fuzztime 30s ./internal/tasktable/

clean:
	rm -rf results
	$(GO) clean -testcache

verify:
	$(GO) run ./cmd/experiments -run soundness
