# Tier-1 gate: everything must build, vet clean, pass the full test
# suite under the race detector (the parallel planner engine and the
# telemetry sinks make -race load-bearing, not optional), and survive a
# short fuzzing pass over every decoder that accepts untrusted bytes.
.PHONY: tier1 build vet lint inline-check test race shuffle fuzz-smoke chaos cluster-drill perfbench-check bench bench-core bench-cache bench-check obs-demo tables tables-check loc

tier1: build lint race shuffle chaos cluster-drill perfbench-check fuzz-smoke

build:
	go build ./...

vet:
	go vet ./...

# Static gate: vet, the inlining check below, plus a hard gofmt check —
# any file gofmt would rewrite fails the build with the offending paths
# listed.
lint: vet inline-check
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l flagged:"; echo "$$unformatted"; exit 1; \
	fi

# Inlining gate: spanBound.prune and spanBound.keyPrune run on every
# candidate the engine admits, and each must inline into engine.admit
# (internal/core/wave.go) under the compiler's budget of 80. The arena's
# Ref resolver, candidate.(*Arena).At, runs on every popped candidate and
# in the heaps' tie order (wave.go) and on every kill a Store.Insert marks
# (internal/candidate/candidate.go), and must inline at both. Losing any
# of them passes every test and bench-check, which gates configs, not
# time; the compiler's -m report fails here instead. The build cache
# replays that report, so a cached build still prints it.
inline-check:
	@out=$$(go build -gcflags=-m ./internal/core ./internal/candidate 2>&1) || { echo "$$out"; exit 1; }; \
	for f in prune keyPrune; do \
		echo "$$out" | grep -Eq "wave\.go:[0-9]+:[0-9]+: inlining call to \(\*spanBound\)\.$$f$$" || \
			{ echo "inline-check: (*spanBound).$$f no longer inlines into engine.admit (internal/core/wave.go)"; exit 1; }; \
	done; \
	echo "$$out" | grep -Eq 'core/wave\.go:[0-9]+:[0-9]+: inlining call to candidate\.\(\*Arena\)\.At$$' || \
		{ echo "inline-check: candidate.(*Arena).At no longer inlines into internal/core/wave.go"; exit 1; }; \
	echo "$$out" | grep -Eq 'candidate/candidate\.go:[0-9]+:[0-9]+: inlining call to \(\*Arena\)\.At$$' || \
		{ echo "inline-check: candidate.(*Arena).At no longer inlines into internal/candidate/candidate.go"; exit 1; }

test:
	go test ./...

race:
	go test -race ./...

# Test-order decoupling: one shuffled pass flushes hidden coupling between
# tests (shared pools, package-level state) that a fixed order would mask.
shuffle:
	go test -shuffle=on -count=1 ./...

# Short fuzzing pass over every untrusted-input decoder: the candidate
# store, the two service request decoders (routed plan -config reads its
# file through the /v1/plan one) and the NDJSON request-stream decoder,
# each against its encoding/json reference, every decode mode of the
# wire codec on every api type against encoding/json, the splices that
# serve a stored cache entry as a hit against encoding/json, the client's
# streamed-result line reader against its reference, the result cache's
# snapshot segment reader (routed replays -cache-dir at boot), plus the
# canonical hash, the kernels' priority queue against a sorted-slice
# oracle, the kernels' differential fuzzer, and the coordinator's
# scheduling simulator on fuzzer-chosen seeds and shapes (backends,
# in-flight bound, nets, fault rate, pacing, cancellation).
# Each fuzzer gets FUZZTIME on top of its checked-in seed corpus; any
# crasher fails the target. Regexes are anchored because ./api hosts six
# fuzz functions and `go test -fuzz` demands a unique match.
FUZZTIME ?= 30s

fuzz-smoke:
	go test -run xxx -fuzz '^FuzzStoreInsert$$' -fuzztime $(FUZZTIME) ./internal/candidate
	go test -run xxx -fuzz '^FuzzHeapOrder$$' -fuzztime $(FUZZTIME) ./internal/pqueue
	go test -run xxx -fuzz '^FuzzDecodeRouteRequest$$' -fuzztime $(FUZZTIME) ./api
	go test -run xxx -fuzz '^FuzzDecodePlanRequest$$' -fuzztime $(FUZZTIME) ./api
	go test -run xxx -fuzz '^FuzzPlanStreamDecoder$$' -fuzztime $(FUZZTIME) ./api
	go test -run xxx -fuzz '^FuzzWireDecoders$$' -fuzztime $(FUZZTIME) ./api
	go test -run xxx -fuzz '^FuzzHitSplice$$' -fuzztime $(FUZZTIME) ./api
	go test -run xxx -fuzz '^FuzzResultLine$$' -fuzztime $(FUZZTIME) ./client
	go test -run xxx -fuzz '^FuzzCanonicalHash$$' -fuzztime $(FUZZTIME) ./api
	go test -run xxx -fuzz '^FuzzRouteDifferential$$' -fuzztime $(FUZZTIME) ./internal/core
	go test -run xxx -fuzz '^FuzzScanSegment$$' -fuzztime $(FUZZTIME) ./internal/resultcache
	go test -run xxx -fuzz '^FuzzSchedule$$' -fuzztime $(FUZZTIME) ./internal/coordinator

# Fault-injection battery under the race detector: the faultpoint
# registry's own tests, the chaos suite (panic containment, scratch
# quarantine, retry-once healing, service survival, goroutine-leak
# checks), and one env-armed run proving the FAULTPOINTS activation path
# end to end.
chaos:
	go test -race -count=1 ./internal/faultpoint ./internal/chaos
	FAULTPOINTS=core.wave_push=panic@100 go test -race -count=1 -run '^TestChaosEnvSmoke$$' ./internal/chaos
	go test -race -count=1 ./internal/resultcache
	go test -race -count=1 -run 'Cache|Conditional' ./internal/server

# Cluster partition drills under the race detector: the coordinator's own
# unit tests (hash ring, circuit breaker, per-backend exposition, and the
# seeded simulator that drives the scheduling core through 3,000 random
# schedules and checks each net is emitted once, the plan terminates, no
# half-open grant or waiting exchange is left, and the output equals the
# serial plan), the differential battery proving a sharded plan is
# byte-identical to the serial one through killed backends, mid-exchange
# faults, full degradation to local routing, circuit recovery, and a
# mid-stream drain — plus one env-armed run where FAULTPOINTS
# hard-partitions backend 0 at the dial site for the whole process.
cluster-drill:
	go test -race -count=1 ./internal/coordinator
	go test -race -count=1 -run '^TestCluster' ./internal/chaos
	FAULTPOINTS=coord.dial.0=error go test -race -count=1 -run '^TestClusterEnvPartitionSmoke$$' ./internal/chaos

# The end-to-end benchmark harness is its own module, so `go build ./...`
# never compiles it: vet and test it here, or a change to an API it calls
# (Planner.RunParallel, coordinator.Plan, the planwire helpers) would pass
# tier 1 and fail only when the benchmark runs.
perfbench-check:
	cd perfbench && go vet . && go test -count=1 .

# Reduced-scale paper benchmarks (Tables I-III, figures, ablations) plus
# the parallel batch-routing benchmark.
bench:
	go test -run xxx -bench . -benchtime 1x .

# Allocation/latency trajectory of the search core: the headline RBP,
# FastPath and GALS single-search benchmarks, the one-register RBP and GALS
# searches, the batch of short route-cold-shaped searches (where per-search
# set-up is a large share; its DroppedPool row runs each pass on a fresh
# pooled Scratch, as after the GCs that empty the service's pool), plus
# the parallel planner
# batch, the planner's full wire-width ladder and the latch router's
# iterative deepening, with allocation reporting,
# recorded as JSON so future PRs can
# compare their allocs/op and ns/op against the checked-in numbers. BenchmarkRBP's
# telemetry=* rows price the observability layer.
# The single-search rows get 50 iterations (they are milliseconds each and
# noisy at 10); the planner batches and the latch row (about 0.19 s a
# search) stay at 10 to keep the target fast.
bench-core:
	go test -run xxx -bench 'BenchmarkRBP$$|BenchmarkFastPath$$|BenchmarkGALS$$|BenchmarkOneRegister$$|BenchmarkShortSearches$$|BenchmarkShortSearchesDroppedPool$$' -benchmem -benchtime 50x -json . > BENCH_core.json
	go test -run xxx -bench 'BenchmarkPlanner_ParallelVsSerial$$|BenchmarkPlanner_WidthLadder$$|BenchmarkExtension_LatchVsRegister$$/^latch$$' -benchmem -benchtime 10x -json . >> BENCH_core.json
	@grep -o '"Output":"[^"]*/op[^"]*' BENCH_core.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true

# Price the result cache end to end over HTTP: a forced cold miss vs a
# warm hit on /v1/route (the hit must be an order of magnitude faster and
# never enter the search kernel) and a 16-net /v1/plan batch with half
# its nets already cached, recorded as JSON for regression tracking.
bench-cache:
	go test -run xxx -bench 'BenchmarkRouteColdMiss$$|BenchmarkRouteWarmHit$$|BenchmarkPlanHalfRepeated$$' -benchmem -benchtime 50x -json ./internal/server > BENCH_cache.json
	@grep -o '"Output":"[^"]*/op[^"]*' BENCH_cache.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true

# Perf-regression gate: rerun the headline RBP, FastPath and GALS benchmarks,
# the one-register RBP and GALS searches (where the probe's arrival-key
# bound does most of the pruning), the batch of short searches (warm and
# on a dropped pool), plus the serial batch-planner, wire-width-ladder and latch-router rows
# into a local (gitignored) JSON stream and
# compare them against the checked-in BENCH_core.json — >5% configs/op or
# probe_configs/op regression or any routed-result drift (registers/op,
# latency_ps) fails the target, and so does >5% more B/op on the dropped
# pool's row, the bytes of a fresh Scratch. That row runs at bench-core's
# 50 iterations, because its B/op depends on -benchtime. The workers=1
# planner row is the batch-path
# fingerprint: it would have caught the heap tie-ordering tax that once
# landed silently.
bench-check:
	go test -run xxx -bench 'BenchmarkRBP$$|BenchmarkFastPath$$|BenchmarkGALS$$|BenchmarkOneRegister$$|BenchmarkShortSearches$$|BenchmarkPlanner_ParallelVsSerial$$/^workers=1$$|BenchmarkPlanner_WidthLadder$$|BenchmarkExtension_LatchVsRegister$$/^latch$$' -benchtime 10x -json . > bench-check.json
	go test -run xxx -bench 'BenchmarkShortSearchesDroppedPool$$' -benchtime 50x -json . >> bench-check.json
	go run ./cmd/benchcheck -baseline BENCH_core.json -current bench-check.json

# End-to-end observability demo: route the SoC25mm batch with the live
# /metrics + pprof server and a JSONL trace of every search and net span.
obs-demo:
	go run ./cmd/routed plan -workers 4 -metrics-addr 127.0.0.1:9090 -trace obs-trace.jsonl
	@echo "--- first trace lines ---"
	@head -n 5 obs-trace.jsonl

# Regenerate tables_paper_scale.txt: Tables I-III at paper scale, about
# 3 minutes on a 2-CPU host. Only the time(s) columns and the
# "(regenerated in ...)" lines should differ from the checked-in file.
tables:
	go run ./cmd/routed tables -table all -scale paper > tables_paper_scale.txt.tmp
	mv tables_paper_scale.txt.tmp tables_paper_scale.txt

# Published arm of the paper tables, gated: rerun Tables I-III at paper
# scale (about 2 minutes on a 2-CPU host) into tables-check.txt and
# compare it with tables_paper_scale.txt through TestCLIGoldens' timing
# mask — every cell but the timings must match. Its fast-path row is
# the only paper-scale check of FastPath with the bounds off; the bounded
# arm is a tier-1 golden (internal/bench TestPaperScaleBoundedGolden).
tables-check:
	go run ./cmd/routed tables -table all -scale paper > tables-check.txt
	go test -count=1 -run '^TestTablesPaperScale$$' ./cmd/routed; status=$$?; rm -f tables-check.txt; exit $$status

# Size of the program: non-test Go code lines per package of the root
# module, each package's files under it, and the total. perfbench/ is a
# module of its own, so ./... leaves it out. A code line is neither blank
# nor only a // comment. A measure for change notes, not a gate: tier1
# does not run it.
loc:
	@go list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | awk ' \
		NF > 1 { \
			n = 0; files = ""; \
			for (i = 2; i <= NF; i++) { \
				f = 0; \
				while ((getline line < $$i) > 0) if (line !~ /^[ \t]*(\/\/.*)?$$/) f++; \
				close($$i); \
				k = split($$i, parts, "/"); \
				files = files sprintf("%7d    %s\n", f, parts[k]); n += f; \
			} \
			printf "%7d  %s\n%s", n, $$1, files; total += n; \
		} \
		END { printf "%7d  total\n", total }'
