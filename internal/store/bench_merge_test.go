package store

// Merge-path benchmarks and their regression gate (§51): mergeRuns is
// the k-way inner loop every spilled shard and segment merge streams
// through, and FoldFrom is the cross-table fold every coordinator merge
// rides (its sub-benchmark keeps the name foldTranslated, which
// BENCH_7.json records). BENCH_7.json records the distributed-mining
// experiment and these ns/op numbers. The tier-1 gate is a same-process
// ratio (wide vs narrow merge per record); the opt-in absolute gate
// re-measures the recorded shapes and fails past a 20% slowdown. Run
// both via `make bench-merge`.

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"treemine/internal/benchutil"
	"treemine/internal/core"
)

// bench7Path is the recorded §51 distributed-mining benchmark file at
// the repo root.
const bench7Path = "../../BENCH_7.json"

// benchSortedRun builds a sorted (A, B, D)-ordered run of n items. All
// runs built this way carry identical keys, so a k-way merge over them
// exercises the absorb-equal-keys path on every record, not just the
// minimum scan.
func benchSortedRun(n int) []core.ShardItem {
	items := make([]core.ShardItem, n)
	for i := range items {
		items[i] = core.ShardItem{A: uint32(i / 8), B: uint32(i % 8), D: core.Dist(i % 3), N: 1}
	}
	return items
}

// benchMergeRuns merges k identical sorted runs of n records each; one
// op is the full k-way merge.
func benchMergeRuns(b *testing.B, k, n int) {
	base := benchSortedRun(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := make([]func() (core.ShardItem, error), k)
		for j := range runs {
			idx := 0
			runs[j] = func() (core.ShardItem, error) {
				if idx >= len(base) {
					return core.ShardItem{}, io.EOF
				}
				it := base[idx]
				idx++
				return it, nil
			}
		}
		var total int64
		if err := mergeRuns(runs, func(it core.ShardItem) error {
			total += it.N
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if total != int64(k*n) {
			b.Fatalf("merged %d counts, want %d", total, k*n)
		}
	}
}

// benchFoldTranslated folds n entries coded against a foreign label
// table into a fresh shard through FoldFrom; one op is the whole fold
// — the translation vector build plus every map insert.
func benchFoldTranslated(b *testing.B, labels, n int) {
	opts := core.DefaultForestOptions()
	foreign := make([]string, labels)
	for i := range foreign {
		foreign[i] = "label-" + string(rune('a'+i%26)) + "-" + string(rune('a'+(i/26)%26)) + "-" + string(rune('a'+i/676))
	}
	items := make([]core.ShardItem, n)
	for i := range items {
		items[i] = core.ShardItem{
			A: uint32(i % labels), B: uint32((i * 31) % labels),
			D: core.Dist(i % 3), N: int64(1 + i%7),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := core.NewSupportShard(opts)
		if err := sh.FoldFrom(foreign)(1, items); err != nil {
			b.Fatal(err)
		}
	}
}

// treebaseLabels and treebaseItems give the sorted-run benchmarks the
// shape of the treebase perfbench workload's master shard: about a
// million support entries over 18,870 labels.
const treebaseLabels, treebaseItems = 18870, 1 << 20

// treebaseRun returns the treebase-shaped label table and a sorted run
// of distinct records over it, built once per test binary. Keys come
// from a multiplicative hash of the record number — a bijection on the
// key space — so they cover the table the way mined pairs do.
var treebaseRun = sync.OnceValues(func() ([]string, []core.ShardItem) {
	labels := make([]string, treebaseLabels)
	for i := range labels {
		labels[i] = fmt.Sprintf("Taxon_%05d", i)
	}
	const space = treebaseLabels * treebaseLabels * 4
	seen := make(map[core.IKey]bool, treebaseItems)
	items := make([]core.ShardItem, 0, treebaseItems)
	for i := uint64(0); len(items) < treebaseItems; i++ {
		x := i * 2654435761 % space
		a, b := uint32(x/(treebaseLabels*4)), uint32(x/4%treebaseLabels)
		k := core.NewIKey(a, b, core.D(int(x%4)))
		if seen[k] {
			continue
		}
		seen[k] = true
		a, b = k.Syms()
		items = append(items, core.ShardItem{A: a, B: b, D: k.Dist(), N: int64(1 + x%53)})
	}
	slices.SortFunc(items, func(x, y core.ShardItem) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B), cmp.Compare(x.D, y.D))
	})
	return labels, items
})

// treebaseShard restores the treebase-shaped run into a shard. The run
// is canonical, so the shard keeps it as its run.
func treebaseShard(b *testing.B) *core.SupportShard {
	labels, items := treebaseRun()
	sh, err := core.RestoreShard(core.DefaultForestOptions(), 6000, labels, items)
	if err != nil {
		b.Fatal(err)
	}
	return sh
}

// treebaseLocal returns the treebase-shaped counts coded against the
// label table in reverse order — a stand-in for a worker's intern
// order — sorted by (A, B, D) on those local IDs.
func treebaseLocal() ([]string, []core.ShardItem) {
	labels, items := treebaseRun()
	n := uint32(len(labels))
	local := make([]string, n)
	for i, l := range labels {
		local[n-1-uint32(i)] = l
	}
	recoded := make([]core.ShardItem, len(items))
	for i, it := range items {
		recoded[i] = core.ShardItem{A: n - 1 - it.B, B: n - 1 - it.A, D: it.D, N: it.N}
	}
	slices.SortFunc(recoded, func(x, y core.ShardItem) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B), cmp.Compare(x.D, y.D))
	})
	return local, recoded
}

// treebaseMapShard restores the treebase-shaped counts against a label
// table that is not sorted, so the shard holds them in its map.
func treebaseMapShard(b *testing.B) *core.SupportShard {
	local, items := treebaseLocal()
	sh, err := core.RestoreShard(core.DefaultForestOptions(), 6000, local, items)
	if err != nil {
		b.Fatal(err)
	}
	return sh
}

// benchSnapshot: one op is the canonical export of a million-entry
// map-backed shard — re-coding plus the (A, B, D) radix order.
func benchSnapshot(b *testing.B) {
	sh := treebaseMapShard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, items := sh.Snapshot(); len(items) != treebaseItems {
			b.Fatalf("snapshot of %d items", len(items))
		}
	}
}

// benchSnapshotRun: one op is the canonical export of a million-entry
// run-backed shard — a copy of the run and the labels.
func benchSnapshotRun(b *testing.B) {
	sh := treebaseShard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, items := sh.Snapshot(); len(items) != treebaseItems {
			b.Fatalf("snapshot of %d items", len(items))
		}
	}
}

// benchRunReader: one op reads a million-record segment run back,
// checksum included.
func benchRunReader(b *testing.B) {
	_, items := treebaseRun()
	run := blockRun(b, magicSeg, nil, items)
	b.ReportAllocs()
	b.SetBytes(int64(len(run)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := readRun(run); err != nil || n != len(items) {
			b.Fatalf("read %d records: %v", n, err)
		}
	}
}

// benchFoldFile: one op folds a spilled shard file over 18,870 labels
// in local symbol order into a fresh master — the validation pass and
// the fold pass through the master's map.
func benchFoldFile(b *testing.B) {
	local, items := treebaseLocal()
	path := filepath.Join(b.TempDir(), "worker.shard")
	writeSpilledShard(b, path, core.DefaultForestOptions(), 6000, local, items)
	benchFold(b, path)
}

// benchFoldCanonical: one op folds the canonical spilled shard Finish
// writes for the same counts into a fresh master, which keeps it as its
// run.
func benchFoldCanonical(b *testing.B) {
	sh := treebaseShard(b)
	sh.AddTree(shardForest(1, 1, 10)[0]) // one more tree so Finish spills
	acc, err := NewSpillAccumulator(sh, 1, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := acc.AfterRound(sh); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "worker.shard")
	if err := acc.Finish(path); err != nil {
		b.Fatal(err)
	}
	benchFold(b, path)
}

// benchFold: one op folds the spilled shard at path into a fresh
// master.
func benchFold(b *testing.B, path string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FoldShardFile(core.NewSupportShard(core.DefaultForestOptions()), path); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCompactV4: one op compacts a million-record map-backed shard to
// a v4 file.
func benchCompactV4(b *testing.B) {
	sh := treebaseMapShard(b)
	path := filepath.Join(b.TempDir(), "idx.v4")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CompactShardV4(path, sh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergePath measures the merge primitives at the recorded
// BENCH_7.json shapes: an 8-way merge of 64k-record runs (the
// comfortable-budget case), a 256-way merge of 4k-record runs (the
// tight-budget case the head heap exists for — a linear min-scan
// costs O(fan-in) per record here and keeps getting worse as budgets
// shrink), and a 64k-item fold across a 512-label foreign table. The
// sorted-run kernels (DESIGN.md §54) are measured at the treebase
// shape: a million-entry snapshot, a million-record run read, a
// spilled-file fold and a v4 compaction, all on the map-backed master;
// foldCanonical and snapshotRun are the run-backed master's fold and
// snapshot (DESIGN.md §56).
func BenchmarkMergePath(b *testing.B) {
	b.Run("mergeRuns", func(b *testing.B) { benchMergeRuns(b, 8, 1<<16) })
	b.Run("mergeRunsWide", func(b *testing.B) { benchMergeRuns(b, 256, 1<<12) })
	b.Run("foldTranslated", func(b *testing.B) { benchFoldTranslated(b, 512, 1<<16) })
	b.Run("snapshot", benchSnapshot)
	b.Run("runReader", benchRunReader)
	b.Run("foldFile", benchFoldFile)
	b.Run("compactV4", benchCompactV4)
	b.Run("foldCanonical", benchFoldCanonical)
	b.Run("snapshotRun", benchSnapshotRun)
}

// mergeMeasureBest re-runs a benchmark body n times and keeps the
// fastest ns/op — min-of-N is the stable statistic on the small
// recording boxes (noise only ever adds time).
func mergeMeasureBest(n int, f func(b *testing.B)) float64 {
	best := math.MaxFloat64
	for i := 0; i < n; i++ {
		r := testing.Benchmark(f)
		if v := float64(r.NsPerOp()); v < best {
			best = v
		}
	}
	return best
}

// TestBenchMergeRegressionGate pins what the head heap exists for, as a
// same-process ratio: the per-record cost of a 256-way merge against
// that of an 8-way merge. A heap pays O(log fan-in) per record, so the
// ratio stays near log 256 / log 8 (BENCH_7.json: 34 vs 10.9 ns/record,
// 3.1); a linear min-scan pays O(fan-in), about 32× worse at 256 runs,
// and fails the bound of 6 by far. Skipped under -short.
func TestBenchMergeRegressionGate(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark regression gate skipped in -short mode")
	}
	const narrowRecs, wideRecs, bound = 8 << 16, 256 << 12, 6.0
	narrow, wide := math.MaxFloat64, math.MaxFloat64
	// Interleave the two so both run under the same machine load.
	for i := 0; i < 3; i++ {
		narrow = math.Min(narrow, mergeMeasureBest(1, func(b *testing.B) { benchMergeRuns(b, 8, 1<<16) })/narrowRecs)
		wide = math.Min(wide, mergeMeasureBest(1, func(b *testing.B) { benchMergeRuns(b, 256, 1<<12) })/wideRecs)
	}
	ratio := wide / narrow
	t.Logf("mergeRuns: %.1f ns/record 8-way, %.1f ns/record 256-way, ratio %.2f (bound %.0f)", narrow, wide, ratio, bound)
	if ratio > bound {
		t.Errorf("256-way merge costs %.2f× the 8-way per record, want ≤ %.0f: is the head heap gone?", ratio, bound)
	}
}

// TestBenchMergeAbsoluteGate re-measures the merge path at the recorded
// BenchmarkMergePath shapes and fails if ns/op regressed more than 20%
// against BENCH_7.json. Absolute numbers only mean something on the
// recording box, so the gate is opt-in: it runs only with
// TREEMINE_BENCH_GATE=1 (`make bench-gate`).
func TestBenchMergeAbsoluteGate(t *testing.T) {
	if os.Getenv("TREEMINE_BENCH_GATE") != "1" {
		t.Skip("absolute-ns gate runs only with TREEMINE_BENCH_GATE=1 (make bench-gate)")
	}
	recs, err := benchutil.LoadBenchRecords(bench7Path)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1.2
	for _, shape := range []struct {
		name string
		run  func(b *testing.B)
	}{
		{"BenchmarkMergePath/mergeRuns", func(b *testing.B) { benchMergeRuns(b, 8, 1<<16) }},
		{"BenchmarkMergePath/mergeRunsWide", func(b *testing.B) { benchMergeRuns(b, 256, 1<<12) }},
		{"BenchmarkMergePath/foldTranslated", func(b *testing.B) { benchFoldTranslated(b, 512, 1<<16) }},
	} {
		rec, ok := recs[shape.name]
		if !ok {
			t.Fatalf("%s missing from %s", shape.name, bench7Path)
		}
		if err := benchutil.CheckNsOp(shape.name, mergeMeasureBest(3, shape.run), rec, tol); err != nil {
			t.Error(err)
		}
	}
}
