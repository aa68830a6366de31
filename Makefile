# Standard checks for the treemine repo. `make check` is the tier-1
# gate (vet + the test-oracle import fence + build + full tests); `make race` re-runs the concurrent
# code — multi-worker forest mining, shard merging, the streaming pipeline,
# the parallel distance-matrix fill, and the parallel parsimony search —
# under the race detector (the CI gate runs `make check race chaos`);
# `make chaos` runs the fault-injection and cancellation suite (worker
# panics, torn checkpoint writes, mid-stream iterator failures, signal
# semantics) under -race — see DESIGN.md §47 for the failpoint
# catalogue; `make fuzz` gives each fuzz target a 30-second budget
# beyond its checked-in seed corpus, minimizing each new input for at
# most 1 s so the budget goes to execution; `make bench` regenerates the paper
# figure benchmarks with allocation counts (see BENCH_1.json through
# BENCH_4.json for the recorded baselines); `make bench-dist` runs just
# the pairwise-distance-engine benchmarks (BENCH_3.json); `make
# bench-parsimony` runs just the bit-parallel Fitch engine and parallel
# search benchmarks (BENCH_4.json); `make bench-mine` runs the §48
# mining-core ablation suite plus its regression gate (fails when the
# blocked path loses its same-process lead over the seed unit);
# `make smoke` builds the cousinserve daemon, starts it on the testdata
# index, runs one query of each kind, and requires a drained exit 0
# after SIGTERM (see DESIGN.md §49); `make bench-merge` runs the merge-path benchmarks plus their
# regression gate (fails when a 256-way merge costs over 6× an 8-way
# merge per record, i.e. the head heap is gone); `make bench-gate` runs
# the opt-in absolute-ns gates against BENCH_5.json and BENCH_7.json
# (fails on a >20% ns/op slowdown; only meaningful on the recording
# box, so `go test ./...` never runs them); `make bench-distmine` regenerates
# the distributed-mining recording (BENCH_7.json tables): plan/worker/
# merge over the 100k-tree corpus at 1/2/4 workers plus the
# out-of-core leg (see DESIGN.md §51); `make smoke-dist` runs the
# plan → workers → merge pipeline end to end over the checked-in
# fixture forest and requires the master to agree with the
# single-process run; `make chaos-dist` runs the coordinator
# fault-tolerance drills under -race (supervised retries, worker
# SIGKILLs, stall timeouts, straggler speculation, -allow-partial
# degradation, coordinator kill-and-resume — every drill must converge
# byte-identically; see DESIGN.md §52); `make bench-parse` runs the
# Newick parse and chunk-scan benchmarks (fig6-shaped and quoted-label
# corpora) with allocation counts, plus the parse allocation gate (see
# DESIGN.md §53).

GO ?= go
FUZZTIME ?= 30s

.PHONY: check vet fence build test race chaos chaos-dist fuzz smoke smoke-dist bench bench-dist bench-parsimony bench-mine bench-merge bench-gate bench-distmine bench-parse

check: vet fence build test

vet:
	$(GO) vet ./...

# The test oracle shares no code with what it checks: no non-test
# package but cmd/benchpaper (the ablation baseline) imports
# internal/oracle, and it depends on no treemine package but
# internal/tree and internal/lca (DESIGN.md §60).
fence:
	@bad=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | grep -E ' treemine/internal/oracle( |$$)' | grep -v '^treemine/cmd/benchpaper ' | cut -d' ' -f1); \
	if [ -n "$$bad" ]; then echo "fence: internal/oracle imported by non-test code: $$bad"; exit 1; fi
	@bad=$$($(GO) list -deps ./internal/oracle | grep '^treemine/' | grep -vx -e treemine/internal/oracle -e treemine/internal/tree -e treemine/internal/lca); \
	if [ -n "$$bad" ]; then echo "fence: internal/oracle depends on $$bad"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core -run 'Parallel|Forest|Shard|Stream|Differential|LevelVec|MergeAssociation|FoldTranslated|DrainSorted'
	$(GO) test -race ./internal/cluster ./internal/kernel -run 'Differential|Reference|Matches'
	$(GO) test -race ./internal/parsimony -run 'WorkerCount|TiedSet|Search|Incremental'
	$(GO) test -race ./internal/serve -run 'Differential|Race|Cache|Drain|Hammer'
	$(GO) test -race ./internal/store -run 'Spill|Manifest|FoldShardFile|FoldManifest|Journal|VerifyShard|Ingest'
	$(GO) test -race ./internal/coord
	$(GO) test -race ./cmd/cousinmine -run 'DistributedDifferential|DistGolden'

chaos:
	$(GO) test -race ./internal/faults ./internal/guard ./internal/sigctx
	$(GO) test -race ./internal/core -run 'Cancel|Panic|IteratorError|FaultInjection|LevelVec'
	$(GO) test -race ./internal/store -run 'Atomic|SpillWriteFailpoint|FoldShardFileTorn'
	$(GO) test -race ./internal/parsimony -run 'SearchCancelled|SearchClimb'
	$(GO) test -race ./internal/kernel -run 'FindCtx'
	$(GO) test -race ./cmd/cousinmine -run 'Checkpoint|FaultInjected|DistWorker'
	$(GO) test -race ./internal/serve -run 'Chaos|Fault'

chaos-dist:
	$(GO) test -race ./internal/coord
	$(GO) test -race ./cmd/cousinmine -run 'CoordChaos|DistCoord|DistResume|MergeAllowPartial|DistSupervisionFlag|ParseBytesOverflow' -v

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/newick
	$(GO) test -fuzz=FuzzScanner -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/newick
	$(GO) test -fuzz=FuzzStoreRead -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/store
	$(GO) test -fuzz=FuzzIngest -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/store
	$(GO) test -fuzz=FuzzQueryParse -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/serve

smoke:
	$(GO) test ./cmd/cousinserve -run 'DaemonSmoke' -v

smoke-dist:
	$(GO) test ./cmd/cousinmine -run 'DistributedEndToEnd|DistGolden' -v

bench:
	$(GO) test . -run xxx -bench 'Fig4|Fig5|Fig6MultiTree|Fig7|MineInterned' -benchmem -benchtime=2x

bench-dist:
	$(GO) test . -run xxx -bench 'TDistMatrix' -benchmem
	$(GO) test ./internal/updown -run xxx -bench 'Rank' -benchmem

bench-parsimony:
	$(GO) test ./internal/parsimony -run xxx -bench 'Fitch|ParsimonySearch' -benchmem

bench-mine:
	$(GO) test ./internal/core -run xxx -bench 'BenchmarkMineCore' -benchmem
	$(GO) test ./internal/core -run 'BenchMineCoreRegressionGate' -v

bench-merge:
	$(GO) test ./internal/store -run xxx -bench 'BenchmarkMergePath' -benchmem
	$(GO) test ./internal/store -run 'BenchMergeRegressionGate' -v

bench-gate:
	TREEMINE_BENCH_GATE=1 $(GO) test ./internal/core -run 'BenchMineCoreAbsoluteGate' -v
	TREEMINE_BENCH_GATE=1 $(GO) test ./internal/store -run 'BenchMergeAbsoluteGate' -v

bench-distmine:
	$(GO) run ./cmd/benchpaper -exp distmine -maxtrees 100000

bench-parse:
	$(GO) test ./internal/newick -run xxx -bench 'Parse|Scanner' -benchmem
	$(GO) test ./internal/newick -run 'ParseAllocs' -v
