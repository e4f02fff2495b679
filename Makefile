GO ?= go

.PHONY: all check ci fmt-check vet staticcheck build test race race-server metrics-lint fuzz-smoke perfbench-check perfbench-smoke eco-check bench bench-100k loc clean

all: check

# The full verification gate: vet, build, tests, and the race detector
# on the concurrency-sensitive packages.
check: vet build test race race-server

# Everything CI runs, reproducible locally with one command.
ci: fmt-check vet staticcheck build test race race-server metrics-lint fuzz-smoke perfbench-check perfbench-smoke eco-check bench-100k loc

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck is optional locally (CI installs it); skip with a notice
# when the binary is absent so `make ci` works on minimal machines.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with worker concurrency and the
# shared telemetry instruments — core's executor parity and abort tests
# run rank buckets on 2, 8 and NumCPU workers, and TestTier0WarmProbe
# runs warm tier-0 sessions whose workers probe one shared
# characterization cache at Workers 1 and 2 — plus every root test
# that drives one Design from several goroutines: mixed
# Analyze/Reanalyze/Edit sessions, concurrent corner sessions (all
# bit-compared against serial references — DESIGN.md §11), a LUT
# session beside an exact one (each counting only its own work) and the
# introspection server scraped while analyses and edits run. -count=1:
# no result comes from the test cache.
race:
	$(GO) test -race -count=1 ./internal/core/ ./internal/delaycalc/ ./internal/obs/ ./internal/incremental/
	$(GO) test -race -run 'Concurrent|IntrospectionServerLive' -count=1 .

# Race-detector pass over the serving layer: the daemon's handler,
# admission-control and coalescing tests (8-worker mixed read/edit
# traffic through one design) plus the introspection plane's
# serve/shutdown lifecycle.
race-server:
	$(GO) test -race -count=1 ./internal/server/ ./internal/obs/httpserve/

# Metric-vocabulary gate: the two-direction drift test (every name the
# runtime registers is declared in obs.AllMetrics and vice versa — see
# DESIGN.md §12 for the label-cardinality rules) plus vet, so a metric
# renamed or invented outside names.go fails here, not in a dashboard.
metrics-lint:
	$(GO) test -run 'TestMetricNameDrift|TestRegisterAllCoversVocabulary' -count=1 . ./internal/obs/
	$(GO) vet ./...

# Twenty seconds of coverage-guided fuzzing of the -eco file decoder:
# every input that decodes is replayed through incremental.Apply on a
# generated design, and nothing may panic. `go test ./...` runs only the
# seed corpus; a failing input lands in
# internal/incremental/testdata/fuzz/ and reruns with every later test.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatches -fuzztime 20s ./internal/incremental/

# The benchmark is a Go module of its own (perfbench/go.mod), so the
# root `go test ./...` never compiles it. It calls the engine directly
# (core.Compile, core.NewSession, Design.Calc); vet and test it here so
# a signature change breaks the build gate, not the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The benchmark's three workloads, 3 s each, at their real sizes: each
# must end with "correct":true and "failed":0 on its last line. The eco
# workload's finish check compares the last of a chain of seeded
# Reanalyze runs with a from-scratch Analyze at the paper's scale (the
# longest path, its endpoint and the critical path's arrivals), the
# only check of seeded runs at that size. ~1 minute.
perfbench-smoke:
	@for w in table warm eco; do \
		last=$$(bash perfbench/run.sh --workload $$w --seconds 3 | tail -n 1); \
		echo "perfbench $$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; *) echo "perfbench $$w: not correct" >&2; exit 1;; esac; \
		echo "$$last" | grep -Eq '"failed":0[,}]' || { echo "perfbench $$w: failed ops" >&2; exit 1; }; \
	done

# The CLI's ECO replay path (-eco) end to end: seven edit batches, one
# per edit kind, re-analyzed incrementally and each bit-compared against
# a from-scratch run (-eco-verify: longest path, pass count and every
# net's final state). The first batch edits a primary input coupled to
# clock nets, which moves flip-flop launches mid-pass. ~1 s per mode.
# The s38417 leg replays five random batches on a circuit whose last
# Iterative pass is looser than the one before it, so the comparison
# also covers the best-pass rule (the reported state is an earlier
# pass's). ~1.5 s. The last leg replays five random batches at two
# workers, so every batch checks the parallel seeded executor. ~1.5 s.
eco-check:
	$(GO) run ./cmd/xtalksta -preset s35932 -scale 0.05 -mode onestep -eco testdata/eco_clock_victim.json -eco-verify >/dev/null
	$(GO) run ./cmd/xtalksta -preset s35932 -scale 0.05 -mode iterative -eco testdata/eco_clock_victim.json -eco-verify >/dev/null
	$(GO) run ./cmd/xtalksta -preset s38417 -scale 0.05 -mode iterative -eco-random 5 -eco-verify >/dev/null
	$(GO) run ./cmd/xtalksta -preset s35932 -scale 0.05 -mode iterative -workers 2 -eco-random 5 -eco-verify >/dev/null

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Capacity leg: the 100k-cell synthetic preset must compile and finish
# one Iterative analysis (DESIGN.md §15; the ROADMAP's scale target).
# ~2 minutes; runs in CI so memory-layout regressions that only show
# past paper scale are caught at the gate.
bench-100k:
	$(GO) run ./cmd/xtalksta -preset synth100k -mode iterative >/dev/null

# The two line counts ROADMAP.md tracks: non-test Go outside the
# benchmark module, without the generated tier0_bands.go table, and
# internal/core alone. Informational; nothing fails on them.
loc:
	@echo "non-test Go outside perfbench/, without tier0_bands.go: $$(find . -name '*.go' ! -name '*_test.go' ! -name tier0_bands.go ! -path './perfbench/*' -exec cat {} + | wc -l)"
	@echo "internal/core: $$(find internal/core -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"

clean:
	$(GO) clean ./...
