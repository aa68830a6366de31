package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"treemine/internal/core"
	"treemine/internal/tree"
)

// foldFixtureTrees plans a forest into parts ranges under dir and
// mines a valid shard for every partition, returning the manifest and
// forest.
func foldFixtureTrees(t *testing.T, dir string, nTrees, parts int) (*Manifest, []*tree.Tree) {
	t.Helper()
	opts := core.DefaultForestOptions()
	forest := shardForest(31, nTrees, 30)
	m, err := NewManifest(absInputs(t, "a.nwk"), nTrees, parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(filepath.Join(dir, "plan.json")); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Partitions {
		sh := mineShard(forest[p.Skip:p.Skip+p.Trees], opts)
		if err := AtomicWrite(m.ShardPath(p.Index), func(w io.Writer) error {
			return SaveShard(w, sh)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m, forest
}

// TestFoldManifestShardsComplete: with every shard valid, the fold
// reports full coverage and the master matches a direct mine.
func TestFoldManifestShardsComplete(t *testing.T) {
	dir := t.TempDir()
	m, forest := foldFixtureTrees(t, dir, 12, 3)
	opts := m.Options.ForestOptions()

	master := core.NewSupportShard(opts)
	rep, err := FoldManifestShards(master, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.TreesMerged != 12 || !reflect.DeepEqual(rep.Merged, []int{0, 1, 2}) {
		t.Fatalf("report = %+v, want complete 12-tree fold", rep)
	}
	want := mineShard(forest, opts)
	if !bytes.Equal(shardBytes(t, master), shardBytes(t, want)) {
		t.Fatal("complete fold differs from a direct mine")
	}
}

// TestFoldManifestShardsStopsAtFirstInvalid: without keepGoing, the
// first bad partition aborts the fold with a typed *PartitionError.
func TestFoldManifestShardsStopsAtFirstInvalid(t *testing.T) {
	dir := t.TempDir()
	m, _ := foldFixtureTrees(t, dir, 12, 3)
	if err := os.Remove(m.ShardPath(1)); err != nil {
		t.Fatal(err)
	}

	master := core.NewSupportShard(m.Options.ForestOptions())
	rep, err := FoldManifestShards(master, m, false)
	var pe *PartitionError
	if !errors.As(err, &pe) || pe.Index != 1 || pe.TreesGot != -1 || pe.Err == nil {
		t.Fatalf("err = %v, want *PartitionError for partition 1", err)
	}
	if !reflect.DeepEqual(rep.Merged, []int{0}) || len(rep.Failed) != 1 {
		t.Fatalf("report = %+v, want partition 0 merged then stop", rep)
	}
}

// TestFoldManifestShardsPartial: with keepGoing, invalid partitions —
// one missing, one torn, one with a wrong tree tally — are excluded
// (never folded, so the master stays exact over the valid ranges) and
// the report carries exact coverage.
func TestFoldManifestShardsPartial(t *testing.T) {
	dir := t.TempDir()
	m, forest := foldFixtureTrees(t, dir, 20, 5)
	opts := m.Options.ForestOptions()

	// Partition 1: missing. Partition 2: torn. Partition 3: valid shard
	// covering the wrong number of trees.
	if err := os.Remove(m.ShardPath(1)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(m.ShardPath(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(m.ShardPath(2), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	p3 := m.Partitions[3]
	wrong := mineShard(forest[p3.Skip:p3.Skip+p3.Trees-1], opts)
	if err := AtomicWrite(m.ShardPath(3), func(w io.Writer) error {
		return SaveShard(w, wrong)
	}); err != nil {
		t.Fatal(err)
	}

	master := core.NewSupportShard(opts)
	rep, err := FoldManifestShards(master, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("report claims completeness with three bad partitions")
	}
	if !reflect.DeepEqual(rep.Merged, []int{0, 4}) {
		t.Fatalf("merged = %v, want [0 4]", rep.Merged)
	}
	if rep.TreesMerged != 8 || rep.TreesTotal != 20 {
		t.Fatalf("coverage = %d/%d, want 8/20", rep.TreesMerged, rep.TreesTotal)
	}
	gotIdx := []int{}
	for _, pe := range rep.Failed {
		gotIdx = append(gotIdx, pe.Index)
	}
	if !reflect.DeepEqual(gotIdx, []int{1, 2, 3}) {
		t.Fatalf("failed partitions = %v, want [1 2 3]", gotIdx)
	}
	if pe := rep.Failed[2]; pe.TreesGot != p3.Trees-1 || pe.TreesWant != p3.Trees || pe.Err != nil {
		t.Fatalf("tally-mismatch error = %+v", pe)
	}

	// The partial master is exactly the mine of the two valid ranges.
	want := core.NewSupportShard(opts)
	for _, i := range []int{0, 4} {
		p := m.Partitions[i]
		if err := want.Merge(mineShard(forest[p.Skip:p.Skip+p.Trees], opts)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(shardBytes(t, master), shardBytes(t, want)) {
		t.Fatal("partial master differs from a direct mine of the valid ranges")
	}
}

// TestVerifyShardFile: valid v3 and spilled shards verify with their
// tree tallies; missing files, torn files, and mismatched options are
// rejected without touching any master.
func TestVerifyShardFile(t *testing.T) {
	opts := core.DefaultForestOptions()
	forest := shardForest(32, 10, 30)
	dir := t.TempDir()

	v3 := filepath.Join(dir, "v3.shard")
	if err := AtomicWrite(v3, func(w io.Writer) error {
		return SaveShard(w, mineShard(forest, opts))
	}); err != nil {
		t.Fatal(err)
	}
	spilled, segs := spillMine(t, forest, opts, 8, t.TempDir())
	if segs == 0 {
		t.Fatal("spill fixture never spilled")
	}

	for _, path := range []string{v3, spilled} {
		trees, err := VerifyShardFile(path, opts)
		if err != nil || trees != len(forest) {
			t.Fatalf("VerifyShardFile(%s) = %d, %v; want %d, nil", path, trees, err, len(forest))
		}
		other := opts
		other.MinSup++
		if _, err := VerifyShardFile(path, other); err == nil {
			t.Fatalf("VerifyShardFile(%s) accepted mismatched options", path)
		}
	}
	if _, err := VerifyShardFile(filepath.Join(dir, "absent.shard"), opts); err == nil {
		t.Fatal("missing shard verified")
	}
	data, err := os.ReadFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.shard")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyShardFile(torn, opts); err == nil {
		t.Fatal("torn shard verified")
	}
}

// TestFoldManifestShardsSpilledTally: a spilled shard that verifies but
// covers other than the planned trees is refused after its one verify
// scan — reported with the tally it carries, never folded.
func TestFoldManifestShardsSpilledTally(t *testing.T) {
	dir := t.TempDir()
	m, forest := foldFixtureTrees(t, dir, 10, 2)
	opts := m.Options.ForestOptions()
	p1 := m.Partitions[1]
	items := []core.ShardItem{{A: 0, B: 1, D: core.D(0), N: 3}, {A: 1, B: 1, D: core.D(1), N: 2}}
	writeSpilledShard(t, m.ShardPath(1), opts, p1.Trees+1, []string{"x", "y"}, items)

	master := core.NewSupportShard(opts)
	rep, err := FoldManifestShards(master, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 {
		t.Fatalf("failed = %v, want partition 1 alone", rep.Failed)
	}
	if pe := rep.Failed[0]; pe.Index != 1 || pe.TreesGot != p1.Trees+1 || pe.TreesWant != p1.Trees || pe.Err != nil {
		t.Fatalf("tally-mismatch error = %+v", pe)
	}
	p0 := m.Partitions[0]
	if !bytes.Equal(shardBytes(t, master), shardBytes(t, mineShard(forest[p0.Skip:p0.Skip+p0.Trees], opts))) {
		t.Fatal("the refused spilled shard reached the master")
	}
}
