package store

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"treemine/internal/core"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// canonicalForest is a random forest over a random-sized alphabet.
func canonicalForest(rng *rand.Rand, n int) []*tree.Tree {
	labels := treegen.Alphabet(4 + rng.Intn(40))
	out := make([]*tree.Tree, n)
	for i := range out {
		out[i] = treegen.Uniform(rng, 2+rng.Intn(30), labels)
	}
	return out
}

// spillParts spill-mines each of parts contiguous slices of forest
// through its own accumulator, budgeted at maxEntries and mined by
// parts stream workers, and returns the finished worker files.
func spillParts(t *testing.T, forest []*tree.Tree, opts core.ForestOptions, parts, maxEntries int) []string {
	t.Helper()
	var paths []string
	for p := 0; p < parts; p++ {
		dir := t.TempDir()
		sh := core.NewSupportShard(opts)
		acc, err := NewSpillAccumulator(sh, maxEntries, dir)
		if err != nil {
			t.Fatal(err)
		}
		part := forest[p*len(forest)/parts : (p+1)*len(forest)/parts]
		if _, err := core.MineForestStreamShard(core.NewSliceIterator(part), opts, core.StreamConfig{
			Resume: sh, Workers: parts, BatchSize: 3, AfterRound: acc.AfterRound,
		}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "worker.shard")
		if err := acc.Finish(path); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// foldFiles folds worker files into a fresh master, in order.
func foldFiles(t *testing.T, opts core.ForestOptions, paths ...string) *core.SupportShard {
	t.Helper()
	master := core.NewSupportShard(opts)
	for _, p := range paths {
		if _, err := FoldShardFile(master, p); err != nil {
			t.Fatal(err)
		}
	}
	return master
}

// v4Bytes compacts sh and returns the v4 file's bytes.
func v4Bytes(t *testing.T, sh *core.SupportShard) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := CompactShardV4(path, sh); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkSameMaster holds got to the map-backed want on every output: v3
// bytes, Finalize and v4 bytes.
func checkSameMaster(t *testing.T, what string, got, want *core.SupportShard) {
	t.Helper()
	if !bytes.Equal(shardBytes(t, got), shardBytes(t, want)) {
		t.Fatalf("%s: v3 bytes differ from the map-backed master", what)
	}
	if g, w := got.Finalize(2), want.Finalize(2); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Finalize differs from the map-backed master", what)
	}
	if !bytes.Equal(v4Bytes(t, got), v4Bytes(t, want)) {
		t.Fatalf("%s: v4 bytes differ from the map-backed master", what)
	}
}

// legacySpilledShard writes sh's counts the way Finish did before spill
// runs were canonical: the header carries labels, a worker's local table
// in intern order, and the records are coded by local ID, sorted by
// (A, B, D) with A ≤ B by ID.
func legacySpilledShard(t *testing.T, path string, sh *core.SupportShard, labels []string) {
	t.Helper()
	opts, trees, sorted, items := sh.Snapshot()
	local := make(map[string]uint32, len(labels))
	for i, l := range labels {
		local[l] = uint32(i)
	}
	for i, it := range items {
		a, b := local[sorted[it.A]], local[sorted[it.B]]
		items[i].A, items[i].B = min(a, b), max(a, b)
	}
	slices.SortFunc(items, func(x, y core.ShardItem) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B), cmp.Compare(x.D, y.D))
	})
	writeSpilledShard(t, path, opts, trees, labels, items)
}

// labelTriples renders drained items against their table, so drains of
// masters with different local tables compare.
func labelTriples(labels []string, items []core.ShardItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = fmt.Sprintf("%s|%s|%d|%d", labels[it.A], labels[it.B], it.D, it.N)
	}
	return out
}

// TestSpillCanonicalDifferential: random forests spill-mined at budgets
// from one entry to unbounded by one to three workers fold into a
// master — run-backed whenever the first file is canonical — whose v3
// bytes, Finalize and v4 bytes equal a map-backed resident mine's, and
// stay equal after a follow-on AddTree, FoldFrom, Merge, second fold or
// DrainSorted applied to both.
func TestSpillCanonicalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for round := 0; round < 6; round++ {
		forest := canonicalForest(rng, 12+rng.Intn(30))
		extra := canonicalForest(rng, 5)
		opts := core.DefaultForestOptions()
		opts.IgnoreDist = round%3 == 2
		for _, budget := range []int{1, 16, 200, 1 << 30} {
			for parts := 1; parts <= 3; parts++ {
				what := fmt.Sprintf("round %d, budget %d, %d workers", round, budget, parts)
				paths := spillParts(t, forest, opts, parts, budget)
				checkSameMaster(t, what, foldFiles(t, opts, paths...), mineShard(forest, opts))

				follow := []struct {
					name string
					do   func(*core.SupportShard) error
				}{
					{"AddTree", func(sh *core.SupportShard) error { sh.AddTree(extra[0]); return nil }},
					{"FoldFrom", func(sh *core.SupportShard) error {
						_, n, labels, items := mineShard(extra, opts).Snapshot()
						return sh.FoldFrom(labels)(n, items)
					}},
					{"Merge", func(sh *core.SupportShard) error { return sh.Merge(mineShard(extra, opts)) }},
					{"second fold", func(sh *core.SupportShard) error {
						_, err := FoldShardFile(sh, paths[0])
						return err
					}},
				}
				for _, f := range follow {
					got, want := foldFiles(t, opts, paths...), mineShard(forest, opts)
					if err := f.do(got); err != nil {
						t.Fatal(err)
					}
					if err := f.do(want); err != nil {
						t.Fatal(err)
					}
					checkSameMaster(t, what+", after "+f.name, got, want)
				}

				got, want := foldFiles(t, opts, paths...), mineShard(forest, opts)
				gd, err := got.DrainSorted()
				if err != nil {
					t.Fatal(err)
				}
				wd, err := want.DrainSorted()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(labelTriples(got.LocalLabels(), gd), labelTriples(want.LocalLabels(), wd)) {
					t.Fatalf("%s: the folded master drains differently from the map-backed one", what)
				}
				for _, tr := range extra {
					got.AddTree(tr)
					want.AddTree(tr)
				}
				checkSameMaster(t, what+", after DrainSorted", got, want)
			}
		}
	}
}

// TestSpillFinishCanonical: a spilled Finish writes the Snapshot payload
// in run framing — the sorted label table and rank-coded records,
// strictly ascending with A ≤ B, equal to the resident mine's snapshot.
func TestSpillFinishCanonical(t *testing.T) {
	forest := shardForest(19, 40, 30)
	opts := core.DefaultForestOptions()
	path, segs := spillMine(t, forest, opts, 16, t.TempDir())
	if segs == 0 {
		t.Fatal("budget of 16 entries never spilled — test exercises nothing")
	}
	r, err := OpenSpilledShard(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var items []core.ShardItem
	for {
		it, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	_, trees, labels, want := mineShard(forest, opts).Snapshot()
	if r.Trees != trees || !reflect.DeepEqual(r.Labels, labels) || !reflect.DeepEqual(items, want) {
		t.Fatal("spilled shard is not the resident mine's canonical snapshot")
	}
}

// TestFoldShardFileLegacyOrder: a spilled shard written in the old local
// symbol order — intern-order header labels, records sorted by local ID
// — still folds, through the map, to the resident mine's v3 bytes.
func TestFoldShardFileLegacyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for round := 0; round < 4; round++ {
		forest := canonicalForest(rng, 30)
		opts := core.DefaultForestOptions()
		opts.IgnoreDist = round == 3
		ref := mineShard(forest, opts)
		path := filepath.Join(t.TempDir(), "legacy.shard")
		labels := ref.LocalLabels()
		if sort.StringsAreSorted(labels) {
			t.Fatal("intern order happens to be sorted — test exercises nothing")
		}
		legacySpilledShard(t, path, ref, labels)
		checkSameMaster(t, fmt.Sprintf("round %d", round), foldFiles(t, opts, path), ref)
		canonical := spillParts(t, forest, opts, 1, 8)[0]
		checkSameMaster(t, fmt.Sprintf("round %d, legacy then canonical", round),
			foldFiles(t, opts, path, canonical), foldFiles(t, opts, canonical, path))
	}
}

// TestSpillFinishRetryKeepsTail: a Finish that fails — here because its
// destination directory does not exist — keeps the resident tail it
// drained, so retrying Finish to a good path folds to exactly the
// resident mine's bytes.
func TestSpillFinishRetryKeepsTail(t *testing.T) {
	const seed, n, size, alpha, budget = 3, 330, 80, 250, 20000
	opts := core.DefaultForestOptions()
	ref, err := core.MineForestStreamShard(newPairGen(seed, n, size, alpha), opts, core.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sh := core.NewSupportShard(opts)
	acc, err := NewSpillAccumulator(sh, budget, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.MineForestStreamShard(newPairGen(seed, n, size, alpha), opts, core.StreamConfig{
		Resume: sh, BatchSize: 10, AfterRound: acc.AfterRound,
	}); err != nil {
		t.Fatal(err)
	}
	if acc.Segments() == 0 || sh.Len() == 0 {
		t.Fatalf("%d segments, %d-entry tail: want both, or the test exercises nothing", acc.Segments(), sh.Len())
	}
	if err := acc.Finish(filepath.Join(dir, "missing", "worker.shard")); err == nil {
		t.Fatal("Finish into a missing directory succeeded")
	}
	path := filepath.Join(dir, "worker.shard")
	if err := acc.Finish(path); err != nil {
		t.Fatal(err)
	}
	if got, want := foldFiles(t, opts, path), ref; !bytes.Equal(shardBytes(t, got), shardBytes(t, want)) {
		t.Fatalf("retried Finish folds to %d entries, want %d", got.Len(), want.Len())
	}
}

// TestFoldShardFileRunHeap: folding a canonical spilled file of over
// 100,000 entries into an empty master keeps the run, whose live heap
// is at most 0.6× that of the map-backed fold of the same counts (a
// legacy-order file); both masters serialize identically. Heap only,
// no timing.
func TestFoldShardFileRunHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement needs the full corpus")
	}
	const seed, n, size, alpha, budget = 5, 420, 80, 250, 20000
	opts := core.DefaultForestOptions()
	dir := t.TempDir()
	sh := core.NewSupportShard(opts)
	acc, err := NewSpillAccumulator(sh, budget, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.MineForestStreamShard(newPairGen(seed, n, size, alpha), opts, core.StreamConfig{
		Resume: sh, AfterRound: acc.AfterRound,
	}); err != nil {
		t.Fatal(err)
	}
	canonical := filepath.Join(dir, "worker.shard")
	if err := acc.Finish(canonical); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.shard")
	legacySpilledShard(t, legacy, foldFiles(t, opts, canonical), sh.LocalLabels())
	sh, acc = nil, nil

	foldHeap := func(path string) (*core.SupportShard, uint64) {
		base := liveHeap()
		master := foldFiles(t, opts, path)
		return master, liveHeap() - base
	}
	runMaster, runHeap := foldHeap(canonical)
	want := shardBytes(t, runMaster)
	entries := runMaster.Len()
	runtime.KeepAlive(runMaster)
	runMaster = nil
	mapMaster, mapHeap := foldHeap(legacy)
	if !bytes.Equal(shardBytes(t, mapMaster), want) {
		t.Fatal("canonical and legacy folds differ")
	}
	runtime.KeepAlive(mapMaster)

	ratio := float64(runHeap) / float64(mapHeap)
	t.Logf("%d entries: run-backed master %d B, map-backed %d B, ratio %.2f", entries, runHeap, mapHeap, ratio)
	if entries < 100000 {
		t.Fatalf("only %d entries — want at least 100,000", entries)
	}
	if ratio > 0.6 {
		t.Fatalf("run-backed master holds %.2f× the map-backed master's heap, want ≤ 0.6", ratio)
	}
}

// TestSpillWriteFailureKeepsRun: a spill whose segment write fails —
// here because the spill directory does not exist — keeps the run it
// drained, so Finish still writes every count of the trees mined.
func TestSpillWriteFailureKeepsRun(t *testing.T) {
	forest := shardForest(23, 30, 30)
	opts := core.DefaultForestOptions()
	dir := t.TempDir()
	sh := core.NewSupportShard(opts)
	acc, err := NewSpillAccumulator(sh, 8, filepath.Join(dir, "missing"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.MineForestStreamShard(core.NewSliceIterator(forest), opts, core.StreamConfig{
		Resume: sh, BatchSize: 10, AfterRound: acc.AfterRound,
	}); err == nil {
		t.Fatal("spilling into a missing directory succeeded")
	}
	mined := sh.Trees()
	if mined == 0 || sh.Len() != 0 {
		t.Fatalf("%d trees mined, %d entries resident: want a drained prefix", mined, sh.Len())
	}
	path := filepath.Join(dir, "worker.shard")
	if err := acc.Finish(path); err != nil {
		t.Fatal(err)
	}
	if got, want := foldFiles(t, opts, path), mineShard(forest[:mined], opts); !bytes.Equal(shardBytes(t, got), shardBytes(t, want)) {
		t.Fatalf("Finish after a failed spill folds to %d entries, want %d", got.Len(), want.Len())
	}
}
