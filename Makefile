GO ?= go

.PHONY: all build test race vet fmt lint bench bench-subset bench-baseline bench-smoke golden golden-check profile serve smoke ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on -count=1 ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt mirrors the CI gofmt gate: fail, naming the files, if anything is
# unformatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

# lint runs the repo's own static-analysis suite (cmd/asaplint): the
# per-package analyzers (donecheck, detcheck, unitcheck, obscheck) plus
# the module-wide call-graph pair —
# alloccheck (//asap:hot functions are transitively allocation-free) and
# domaincheck (event callbacks mutate only their own component). Use
# `go run ./cmd/asaplint -json ./...` for machine-readable findings.
lint:
	$(GO) run ./cmd/asaplint ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-subset runs the benchmark subset the CI bench job gates and
# bench-baseline records, writing the `go test -bench` output to BENCH_OUT.
# It is the one list of those benchmarks: both callers run it, so the
# baseline and CI's measurement always repeat each benchmark the same
# number of times (benchdiff keeps the minimum of the repeats).
# - Fig8 also matches Fig8Parallel (the worker pool; it skips itself on
#   single-CPU machines) and RunASAP matches RunASAPTraced (the
#   tracing-on overhead gate).
# - EventThroughputTyped pins the dispatch fast path, and
#   EventQueueMachineShape pins typed dispatch at a machine's queue depth,
#   at fixed iterations so ns/op is comparable across runs.
# - The per-subsystem microbenchmarks (cache access, PB flush cycle, MC
#   flush+commit, machine op dispatch) are the zero-alloc hot paths the
#   alloc gate protects. DirectoryAccess/SetAssocLookup isolate the
#   open-addressed directory and the packed-slot cache scan inside
#   HierarchyAccess; they run 8 times, because a single 1M-iteration
#   sample swings by more than the gate. MemSide is the memory-side rung:
#   one controller's WPQ, XPBuffer and NVM slabs serving a flush mix.
# - CrashCampaignForked pins the fork-per-injection crash campaign,
#   CrashCheck one crash.Check of a mid-run crashed machine against the
#   Ledger, CheckpointRoundtrip one Save+Load of a mid-run machine image,
#   and CheckpointRecapture one in-place Recapture+Fork.
# - MachineNew/<workload> and Generate/<workload> are the construction
#   rungs of a cold Figure 8 run (machine.New and trace generation at
#   -ops 80), where the B/op gate holds per-run memory to what the trace
#   touches; MachineReset/<workload> is the construction rung of a run on
#   a machine the harness pool reuses (Machine.Reset).
BENCH_OUT ?= /tmp/bench_subset.txt
bench-subset:
	$(GO) test -bench 'Fig8|Tab4|RunASAP' -benchtime 1x -count 3 -benchmem -run '^$$' . > $(BENCH_OUT)
	$(GO) test -bench 'EventThroughputTyped|EventQueueMachineShape' -benchtime 1000000x -count 3 -benchmem -run '^$$' ./internal/sim >> $(BENCH_OUT)
	$(GO) test -bench 'HierarchyAccess|DirectoryAccess|SetAssocLookup' -benchtime 1000000x -count 8 -benchmem -run '^$$' ./internal/cache >> $(BENCH_OUT)
	$(GO) test -bench 'PBFlushCycle|MCFlushCommit' -benchtime 200000x -count 3 -benchmem -run '^$$' ./internal/persist >> $(BENCH_OUT)
	$(GO) test -bench 'MemSide' -benchtime 1000000x -count 3 -benchmem -run '^$$' ./internal/mem >> $(BENCH_OUT)
	$(GO) test -bench 'MachineOps' -benchtime 10000x -count 3 -benchmem -run '^$$' ./internal/machine >> $(BENCH_OUT)
	$(GO) test -bench 'MachineNew|MachineReset' -benchtime 200x -count 3 -benchmem -run '^$$' ./internal/machine >> $(BENCH_OUT)
	$(GO) test -bench 'Generate' -benchtime 200x -count 3 -benchmem -run '^$$' ./internal/workload >> $(BENCH_OUT)
	$(GO) test -bench 'CrashCampaignForked' -benchtime 1x -count 3 -benchmem -run '^$$' ./internal/crash >> $(BENCH_OUT)
	$(GO) test -bench 'CrashCheck' -benchtime 2000x -count 3 -benchmem -run '^$$' ./internal/crash >> $(BENCH_OUT)
	$(GO) test -bench 'CheckpointRoundtrip' -benchtime 20x -count 3 -benchmem -run '^$$' ./internal/checkpoint >> $(BENCH_OUT)
	$(GO) test -bench 'CheckpointRecapture' -benchtime 500x -count 3 -benchmem -run '^$$' ./internal/checkpoint >> $(BENCH_OUT)
	@cat $(BENCH_OUT)

# bench-baseline regenerates the committed benchmark baseline the CI
# bench job gates against (25% time regression, 10% allocs/op and B/op
# regression; zero-alloc benchmarks fail on any allocation). Run it on
# the same class of machine CI uses, or refresh from CI's BENCH_ci.json
# artifact.
bench-baseline:
	$(MAKE) bench-subset BENCH_OUT=/tmp/bench_baseline.txt
	$(GO) run ./cmd/benchdiff -tojson /tmp/bench_baseline.txt > BENCH_baseline.json
	@cat BENCH_baseline.json

# bench-smoke vets and tests the end-to-end benchmark (bench/, its own
# module): a tiny-size run of every workload plus the pinned seed-1 result
# digests, so a simulator change that breaks the benchmark or moves its
# digests fails here. Root `go test ./...` never builds bench/.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .

# golden regenerates the checked-in golden tables the CI golden job (and
# golden_test.go) diff against, plus the golden Chrome trace
# (testdata/golden/trace_small.json, pinned by golden_trace_test.go).
# Review the diff: a golden change means published numbers moved.
golden:
	$(GO) run ./cmd/asapfig -ops 80 -csv -outdir testdata/golden all
	UPDATE_GOLDEN=1 $(GO) test -run 'TestGoldenTrace$$' -count=1 .

# golden-check reproduces the CI golden gate locally: serial and
# 8-worker-parallel runs must both match the committed tables exactly.
# The golden trace JSON and the golden checkpoint image are excluded
# (asapfig does not emit them; their own tests pin them byte-for-byte).
golden-check:
	$(GO) run ./cmd/asapfig -ops 80 -csv -parallel 1 -outdir /tmp/asap-golden-serial all
	diff -ru -x '*.json' -x '*.ckpt' testdata/golden /tmp/asap-golden-serial
	$(GO) run ./cmd/asapfig -ops 80 -csv -parallel 8 -outdir /tmp/asap-golden-parallel all
	diff -ru -x '*.json' -x '*.ckpt' testdata/golden /tmp/asap-golden-parallel

# profile captures cpu+heap pprof of the Fig8 sweep — the run whose
# per-access memory-system path the perf work targets. Inspect with
# `go tool pprof /tmp/asap-profile/cpu.pprof`. CI's bench job uploads
# the same profiles as an artifact.
profile:
	$(GO) run ./cmd/asapfig -profile /tmp/asap-profile fig8
	@ls -l /tmp/asap-profile

# serve starts asapd in the foreground on a local store. Submit with
# curl (see EXPERIMENTS.md "Serving runs") or `make smoke` from another
# terminal; ^C shuts down gracefully.
serve:
	$(GO) run ./cmd/asapd -addr 127.0.0.1:8321 -store /tmp/asap-store

# smoke reproduces the CI service job locally: boot asapd on a fresh
# scratch store, submit one RunSpec twice via asapsmoke, assert the
# second response is a byte-identical cache hit, shut the daemon down.
smoke:
	$(GO) build -o /tmp/asap-bin/ ./cmd/asapd ./cmd/asapsmoke
	rm -rf /tmp/asap-smoke-store
	/tmp/asap-bin/asapd -addr 127.0.0.1:8321 -store /tmp/asap-smoke-store & \
	pid=$$!; \
	/tmp/asap-bin/asapsmoke -addr http://127.0.0.1:8321 -threads 4 -ops 400; rc=$$?; \
	kill $$pid; exit $$rc

# ci mirrors .github/workflows/ci.yml.
ci: build vet fmt test race lint bench-smoke golden-check smoke
