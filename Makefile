GO ?= go

.PHONY: build test race vet lint sanitize fuzz bench-ci bench-test trim-smoke stream-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also gates formatting: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l *.go bench cmd internal)"; \
		if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# The second line re-runs the tests of what happens concurrently around and
# inside a run — per-shard set-up and teardown, the figure sweeps, the lane
# workers and the router buffers they hand back, the live plane, a device's
# timing half on its own goroutine — at
# three GOMAXPROCS values, so the goroutines are scheduled both on fewer and
# on more Ps than the runner has cores (the host pipelines the timing half
# only from two Ps per shard up).
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 ./internal/sim ./internal/host \
		-run 'GOMAXPROCS|TestPerShard|TestRunAll|TestRequestPathEquivalence|TestStreamedReplayMatchesEager|TestTelemetryScrapeEquivalence|TestMetricsFileAndPlaneAgree|TestPipelined|TestDeviceErrorMidStream|TestSourceErrorMidStream|TestRouterReuseAcrossShapes|TestRouteChunkEdges|TestOneShardServesOnCaller'

# The repo's two static rules, for the bug classes no test fails on: every
# switch over trace.Op covers every op or has a default, and no non-test file
# of the simulation packages (flash, ftl/..., core, lru, buffer, ssd, host)
# ranges over a map, whose random order once leaked into flash state. They
# are internal/lint's TestTree, which type-checks every package of the root
# and the bench/ module, _test.go files included, and which `go test ./...`
# runs too (-count=1: the test cache sees a file added to a checked package,
# not a new package elsewhere). Neither rule has a waiver.
lint:
	$(GO) test -count=1 ./internal/lint

FORCE:

# The ftlsan build runs the full invariant suite (chip bookkeeping, GTD and
# live-mapping consistency, translator structure) after every host
# operation. -short skips the paper-scale runs, whose 300k requests would
# make the O(pages) per-op checks explode.
sanitize:
	$(GO) test -tags ftlsan -short ./...

# Short fuzz passes over the crash-recovery property and the two oracles (the
# seed corpora always run under plain `go test`; this explores beyond them):
# the reference model, which catches a mistranslated entry that lands on
# another page's valid data, arbitrary host requests, each served or refused
# with ftl.ErrBadRequest, and fuzzed trace text replayed through a device at
# one shard and at two. Built with -tags ftlsan so every
# fuzz-discovered sequence also runs under the per-op invariant checks.
fuzz:
	$(GO) test -tags ftlsan ./internal/sim -run '^$$' -fuzz FuzzCrashRecovery -fuzztime 30s
	$(GO) test -tags ftlsan ./internal/sim -run '^$$' -fuzz FuzzCrashTrimFlush -fuzztime 30s
	$(GO) test -tags ftlsan ./internal/sim -run '^$$' -fuzz FuzzReferenceModel -fuzztime 30s
	$(GO) test -tags ftlsan ./internal/sim -run '^$$' -fuzz FuzzTraceReplay -fuzztime 30s
	$(GO) test -tags ftlsan ./internal/ftl -run '^$$' -fuzz FuzzDeviceRequests -fuzztime 30s

# bench-ci is a short-budget run of the referee benchmark itself (bench/,
# BENCHMARK.json — the instrument PRs are judged by): run.sh builds bench/ from
# source against the current internal/, and each workload takes at least five
# repeats and exits non-zero when a repeat is not bit-identical to the
# reference or the pinned input drifted. One second is far too short to read a
# speed from; this gates that the instrument builds, runs and checks itself,
# not throughput (the AllocsPerRun guards pin the zero-allocation path). The
# target fails unless every workload printed its `"correct":true`,
# `"failed":0` result line.
bench-ci:
	@for w in fin1 randread seqread mixed2; do \
		echo "bash bench/run.sh --workload $$w --seconds 1"; \
		out="$$(bash bench/run.sh --workload $$w --seconds 1 2>&1)"; status=$$?; \
		echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
		echo "$$out" | grep -q '^{"correct":true,.*"failed":0,' \
			|| { echo "$@: workload $$w printed no \"correct\":true, \"failed\":0 result line"; exit 1; }; \
	done

# The referee benchmark's own tests (< 1 s). `go test ./...` at the root does
# not reach them: bench/ has its own go.mod. The paper's experiments and the
# extensions are pinned by cmd/experiments' golden, which `go test ./...` runs.
bench-test:
	$(GO) test -C bench ./...

# Host-interface smoke: run the trim-heavy and fsync-heavy profiles end to
# end (generated workload → buffer → device → metrics), then verify the
# discard and flush crash contracts at random power-cut points. Catches a
# translator whose Discard or flush path regressed without waiting for
# the full test suite.
bin/ftlsim: FORCE
	$(GO) build -o bin/ftlsim ./cmd/ftlsim

trim-smoke: bin/ftlsim
	./bin/ftlsim -workload fstrim-heavy -requests 20000 -scale 67108864 > /dev/null
	./bin/ftlsim -workload database-fsync -requests 20000 -scale 67108864 > /dev/null
	./bin/ftlsim -workload fstrim-heavy -requests 1200 -scale 16777216 -cuts 10 > /dev/null
	./bin/ftlsim -workload database-fsync -requests 1200 -scale 16777216 -cuts 10 > /dev/null

# Streaming-replay smoke: a binary trace streamed from the file must replay
# bit-for-bit identically to the same trace parsed into memory — the same
# stdout report and the same -metrics-out file on one device, and the same
# merged digest through the 2-shard host — and -shards 1 must print exactly
# what the default flags print.
# Catches a batching or routing change that breaks source or shard-count
# equivalence through the flags (the in-process property tests run under
# `make race`).
bin/tracegen: FORCE
	$(GO) build -o bin/tracegen ./cmd/tracegen

stream-smoke: bin/ftlsim bin/tracegen
	./bin/tracegen -workload Financial1 -requests 20000 -scale 67108864 -o /tmp/stream-smoke.csv
	./bin/tracegen convert -format native -i /tmp/stream-smoke.csv -o /tmp/stream-smoke.ftr 2> /dev/null
	./bin/ftlsim -trace /tmp/stream-smoke.csv -format native -space 67108864 -warmup 2000 \
		-metrics-out /tmp/stream-smoke.eager.jsonl > /tmp/stream-smoke.eager.txt 2> /dev/null
	./bin/ftlsim -trace /tmp/stream-smoke.ftr -format binary -space 67108864 -warmup 2000 \
		-metrics-out /tmp/stream-smoke.streamed.jsonl > /tmp/stream-smoke.streamed.txt 2> /dev/null
	cmp /tmp/stream-smoke.eager.txt /tmp/stream-smoke.streamed.txt
	cmp /tmp/stream-smoke.eager.jsonl /tmp/stream-smoke.streamed.jsonl
	./bin/ftlsim -trace /tmp/stream-smoke.csv -format native -space 67108864 -warmup 2000 \
		-shards 2 -clients 4 -qd 8 > /tmp/stream-smoke.eager2.txt 2> /dev/null
	./bin/ftlsim -trace /tmp/stream-smoke.ftr -format binary -space 67108864 -warmup 2000 \
		-shards 2 -clients 4 -qd 8 > /tmp/stream-smoke.streamed2.txt 2> /dev/null
	cmp /tmp/stream-smoke.eager2.txt /tmp/stream-smoke.streamed2.txt
	./bin/ftlsim -trace /tmp/stream-smoke.ftr -format binary -space 67108864 -warmup 2000 \
		-shards 1 > /tmp/stream-smoke.shards1.txt 2> /dev/null
	cmp /tmp/stream-smoke.streamed.txt /tmp/stream-smoke.shards1.txt
	rm -f /tmp/stream-smoke.csv /tmp/stream-smoke.ftr /tmp/stream-smoke.*.txt /tmp/stream-smoke.*.jsonl

ci: vet lint race sanitize bench-test stream-smoke bench-ci trim-smoke
