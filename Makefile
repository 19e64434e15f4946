# Standard entry points. Everything is plain `go` underneath.

.PHONY: all build test vet lint fuzz bench bench-json bench-smoke race crash-test shard-test experiments datasets examples clean

all: build vet lint test

build:
	go build ./...

# perfbench is its own module (it imports this one through a replace
# directive), so ./... does not reach it; vetting it here compiles it
# in CI, and a removed name it still uses fails this step.
vet:
	go vet ./...
	cd perfbench && go vet ./...

# Formatting first: every tracked Go file must be gofmt-clean, except
# the analyzers' testdata inputs, which keep the layouts they test.
# Then the project-invariant analyzer suite (internal/analysis):
# determinism of canonical codes/fingerprints/cache keys, runctl
# checkpoint coverage, panic-isolated goroutine spawns, context
# discipline, %w wrapping.
lint:
	@unformatted="$$(git ls-files -- '*.go' ':!:*/testdata/*' | xargs gofmt -l)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	go run ./cmd/graphsiglint ./...

# Native fuzz harnesses on a short fixed budget: graph text codec
# round-trip, the CSR-vs-reference representation differentials (build/
# codec round-trip and VF2 verdict/count/order agreement), DFS-code
# minimality under node relabeling and edge-order mutation, the SMILES
# parser, the store's two untrusted-input decoders (segment binary
# format, with the reader's frame index and one-frame decodes checked
# against a reference whole-segment decoder; manifest JSON), FVMine
# (threshold and top-k) against a brute-force enumeration of closed
# vectors, on groups of up to 12
# vectors (one bitset word) and of 65 to 400 (several words, with the
# list scan of small sets), FSG (full, closed-only, and the in-miner
# maximal list) against a brute-force enumeration of connected edge
# subsets with VF2 support counts (FuzzFSGOracle), gSpan's closed-only
# patterns and in-miner maximal list against brute-force VF2 closure
# and maximality filters over its full mine (FuzzClosedEquivalence),
# FSG's per-parent trace minimality check against
# dfscode.IsMinimal, RWR's early freeze against the push iteration
# on graphs that put feature masses on bin boundaries, and resume
# snapshot chains (full snapshots, deltas, retries from a shorter
# prefix, gaps, foreign parts) against one full snapshot. `go test -fuzz`
# accepts one target per invocation, hence one line each, and a name
# that prefixes another is anchored.
fuzz:
	go test ./internal/graph    -run='^$$' -fuzz=FuzzReadDB               -fuzztime=2000x
	go test ./internal/graph    -run='^$$' -fuzz=FuzzCSRRoundTrip         -fuzztime=500x
	go test ./internal/isomorph -run='^$$' -fuzz=FuzzVF2Differential      -fuzztime=2000x
	go test ./internal/dfscode  -run='^$$' -fuzz=FuzzCanonicalInvariance  -fuzztime=500x
	go test ./internal/dfscode  -run='^$$' -fuzz=FuzzMinCodeEdgeOrder     -fuzztime=500x
	go test ./internal/gspan    -run='^$$' -fuzz=FuzzClosedEquivalence    -fuzztime=500x
	go test ./internal/chem     -run='^$$' -fuzz=FuzzParseSMILES          -fuzztime=2000x
	go test ./internal/store    -run='^$$' -fuzz=FuzzDecodeSegment        -fuzztime=500x
	go test ./internal/store    -run='^$$' -fuzz=FuzzManifestJSON         -fuzztime=500x
	go test ./internal/fvmine   -run='^$$' -fuzz='^FuzzFVMineOracle$$'    -fuzztime=2000x
	go test ./internal/fvmine   -run='^$$' -fuzz=FuzzFVMineOracleWide     -fuzztime=1000x
	go test ./internal/fsg      -run='^$$' -fuzz=FuzzFSGOracle            -fuzztime=1000x
	go test ./internal/fsg      -run='^$$' -fuzz=FuzzTraceMinimal         -fuzztime=1000x
	go test ./internal/rwr      -run='^$$' -fuzz=FuzzRWRCertificate       -fuzztime=2000x
	go test ./internal/core     -run='^$$' -fuzz=FuzzResumeChain          -fuzztime=2000x

test:
	go test -shuffle=on ./...

race:
	go test -race -shuffle=on ./...

# Durability integration test: builds a real serve binary, kills it
# with SIGKILL mid-mine, restarts over the same journal directory, and
# asserts the resumed job finishes byte-identical to an uninterrupted
# mine. Under -race because the interesting bugs here are races between
# the checkpointer, the journal, and the worker pool.
crash-test:
	go test -race -count=1 -run 'TestCrashRestart' -v ./cmd/serve

# Shard-invariance acceptance gate: the scatter-gather mine must answer
# byte-identically — every p-value and verified support — to an
# unsharded in-memory mine at shard counts 1, 2, and 4 under both
# partition strategies, plus the out-of-core store-backed path, and a
# store read failure in Phase 3 must fail the mine with its error, a
# coordinator must keep nothing between mines, a store-backed mine must
# decode each graph at most once per pass (plus one full check per
# segment through a fresh reader), and an 8-shard mine must peak at most
# a quarter higher in heap than a 1-shard mine. Under -race because the
# mining pipeline fans out vectorization and support counting over
# worker pools.
shard-test:
	go test -race -count=1 -run 'TestShardInvariance|TestStoreBackedMine|TestSweepSegmentLoadsBounded|TestWindowReadErrorFailsMine|TestCoordinatorRetainsNothingBetweenMines|TestShardedMinePeakHeapBounded|TestStoreMineDecodesEachGraphOncePerPass' -v ./internal/shard

bench:
	go test -bench=. -benchmem ./...

# Machine-readable per-stage mining profile (the Fig-10 workload read
# through the obs registry) for CI trend tracking, at parallelism 1,
# with each of the 5 runs timed and their median and minimum recorded.
bench-json:
	go run ./cmd/benchjson -runs 5 -parallelism 1 -out BENCH_graphsig.json

# Same workload as bench-json, gated: fails when a fresh median run is
# more than 2x slower — or a run allocates more than 2x as much, or makes
# more than 2x the FSG minimality checks or RWR power iterations — than
# in the committed baseline, when its pattern count or window-cache hits
# or misses per run differ from the baseline's, or when it runs under a
# different key (dataset, graphs, radius, parallelism, verify) than the
# baseline's. CI runs this
# blocking; refresh the baseline with `make bench-json` after
# intentional performance changes.
bench-smoke:
	go run ./cmd/benchjson -runs 5 -parallelism 1 -out - -baseline BENCH_graphsig.json -max-regression 2

# Regenerate every paper table/figure (writes CSVs into ./csv).
experiments:
	go run ./cmd/experiments -all -chart -csv csv

# Write the 12 synthetic screens into ./data at 1% of paper scale.
datasets:
	go run ./cmd/datagen -out data -scale 0.01

# Run every example end to end.
examples:
	go run ./examples/quickstart
	go run ./examples/featurespace
	go run ./examples/drugdiscovery
	go run ./examples/classification
	go run ./examples/graphsearch
	go run ./examples/generalgraphs

# BENCH_graphsig.json is a committed baseline, not a build artifact;
# clean leaves it alone.
clean:
	rm -rf data csv
