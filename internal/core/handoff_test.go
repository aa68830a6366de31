package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"treemine/internal/faults"
	"treemine/internal/guard"
	"treemine/internal/oracle"
	"treemine/internal/tree"
)

// growingForest returns n random trees whose labels are drawn half from
// a 12-label pool shared by every tree — repeats, so MinOccur 2 and 3
// keep some items and drop others — and half from fresh labels of the
// tree's own, about fresh per tree. A stream over it grows its alphabet
// by that much a tree: past the 64-label boundaries of the pending
// table mid-run, so the table re-provisions and the per-tree table
// follows it, and with enough trees past the dense limit itself.
func growingForest(rng *rand.Rand, n, size, fresh int) []*tree.Tree {
	out := make([]*tree.Tree, n)
	for i := range out {
		lbl := func() string {
			if rng.Intn(2) == 0 {
				return fmt.Sprintf("l%d", rng.Intn(12))
			}
			return fmt.Sprintf("g%d", i*fresh+rng.Intn(fresh))
		}
		b := tree.NewBuilder()
		b.Root(lbl())
		for v := 1; v < size; v++ {
			p := tree.NodeID(rng.Intn(v))
			if rng.Intn(6) == 0 {
				b.ChildUnlabeled(p)
			} else {
				b.Child(p, lbl())
			}
		}
		out[i] = b.MustBuild()
	}
	return out
}

// supportCounts is the oracle's support of every item of the forest.
func supportCounts(forest []*tree.Tree, opts ForestOptions) map[Key]int64 {
	want := map[Key]int64{}
	for _, p := range oracle.Records(naiveSets(opts.Options, forest...), opts.IgnoreDist) {
		want[Key{A: p.Key.A, B: p.Key.B, D: Dist(p.Key.D)}] = int64(p.Support)
	}
	return want
}

// addItems sums items coded against labels into counts.
func addItems(counts map[Key]int64, labels []string, items []ShardItem) {
	for _, it := range items {
		counts[NewKey(labels[it.A], labels[it.B], it.D)] += it.N
	}
}

// TestHandOffDifferential pins the cell hand-off against the oracle on
// streams whose alphabet crosses 64-label boundaries mid-run and, in
// the larger forest, the dense limit: MinOccur 1–3, IgnoreDist both
// ways, 1, 2 and 4 workers, with Len or DrainSorted after every round.
// The drained runs plus the final Snapshot must sum to the oracle's
// support of every item.
func TestHandOffDifferential(t *testing.T) {
	forests := []struct {
		name   string
		forest []*tree.Tree
	}{
		// ~15 fresh labels a tree: 64-label crossings every few trees.
		{"crossings", growingForest(rand.New(rand.NewSource(1)), 24, 50, 24)},
		// ~40 a tree: past 512 labels, where the four distance slots of
		// maxdist 1.5 leave the dense limit but IgnoreDist's one slot
		// keeps a dense pending table over map-mode tree tables, and
		// a multi-worker round hands map-mode private tables over.
		{"dense-limit", growingForest(rand.New(rand.NewSource(2)), 24, 90, 64)},
	}
	for _, f := range forests {
		for _, minOcc := range []int{1, 2, 3} {
			for _, ignore := range []bool{false, true} {
				opts := ForestOptions{Options: Options{MaxDist: 3, MinOccur: minOcc}, MinSup: 1, IgnoreDist: ignore}
				want := supportCounts(f.forest, opts)
				for _, cfg := range []StreamConfig{{Workers: 1, BatchSize: 1}, {Workers: 2, BatchSize: 3}, {Workers: 4, BatchSize: 2}} {
					for _, drain := range []bool{false, true} {
						got := map[Key]int64{}
						cfg.AfterRound = func(sh *SupportShard) error {
							if !drain {
								sh.Len()
								return nil
							}
							items, err := sh.DrainSorted()
							addItems(got, sh.LocalLabels(), items)
							return err
						}
						sh, err := MineForestStreamShard(NewSliceIterator(f.forest), opts, cfg)
						if err != nil {
							t.Fatal(err)
						}
						_, _, labels, items := sh.Snapshot()
						addItems(got, labels, items)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s minoccur=%d ignore=%v workers=%d drain=%v: %d items, oracle %d",
								f.name, minOcc, ignore, cfg.Workers, drain, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestFailedRoundLeavesShardUnchanged cancels, and separately panics, a
// multi-worker round whose new labels make the pending table
// re-provision: the shard's pending tree count, tree tally and Snapshot
// must equal those of a twin that never ran the round, and a clean round
// afterwards, on the same private tables, must keep the two equal.
func TestFailedRoundLeavesShardUnchanged(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	forest := growingForest(rand.New(rand.NewSource(3)), 24, 50, 24)
	prefix, round := forest[:10], forest[10:18]
	for _, ignore := range []bool{false, true} {
		opts := ForestOptions{Options: Options{MaxDist: 3, MinOccur: 1}, MinSup: 1, IgnoreDist: ignore}
		for _, kind := range []string{"cancel", "panic"} {
			sh, twin := buildShard(prefix, opts), buildShard(prefix, opts)
			privs := make([]accum, 4)
			ctx := context.Context(&flipCtx{Context: context.Background(), n: 5})
			if kind == "panic" {
				ctx = context.Background()
				faults.Enable(faults.MineWorker, faults.Spec{Mode: faults.ModePanic, After: 4, Count: 1})
			}
			err := sh.addRound(ctx, round, len(prefix), privs)
			faults.Reset()
			if kind == "cancel" && !errors.Is(err, context.Canceled) || kind == "panic" && !errors.Is(err, guard.ErrPanic) {
				t.Fatalf("ignore=%v %s: round error = %v", ignore, kind, err)
			}
			if sh.pendingTrees != twin.pendingTrees || sh.Trees() != twin.Trees() {
				t.Fatalf("ignore=%v %s: pending %d trees %d, want %d and %d",
					ignore, kind, sh.pendingTrees, sh.Trees(), twin.pendingTrees, twin.Trees())
			}
			if !reflect.DeepEqual(snapshotOf(sh), snapshotOf(twin)) {
				t.Fatalf("ignore=%v %s: failed round changed the snapshot", ignore, kind)
			}
			if err := sh.addRound(context.Background(), round, len(prefix), privs); err != nil {
				t.Fatal(err)
			}
			if err := twin.addRound(context.Background(), round, len(prefix), make([]accum, 4)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snapshotOf(sh), snapshotOf(twin)) {
				t.Fatalf("ignore=%v %s: the round after a failed one diverged", ignore, kind)
			}
		}
	}
}

// shardSnapshot is a Snapshot's result as one comparable value.
type shardSnapshot struct {
	Opts   ForestOptions
	Trees  int
	Labels []string
	Items  []ShardItem
}

func snapshotOf(sh *SupportShard) shardSnapshot {
	opts, trees, labels, items := sh.Snapshot()
	return shardSnapshot{opts, trees, labels, items}
}

// TestAddTreeLenSteadyStateAllocs is the allocation gate on the
// per-round flush: on a shard warm with the Fig 6 pool, AddTree
// allocates nothing, and AddTree plus Len — which drains the pending
// table into the count map and keeps the table — allocates nothing
// either, since every key the tree holds is in the map already.
func TestAddTreeLenSteadyStateAllocs(t *testing.T) {
	trees := forestPool()
	sh := NewSupportShard(DefaultForestOptions())
	for _, tr := range trees {
		sh.AddTree(tr)
	}
	sh.Len()
	i := 0
	next := func() *tree.Tree { i++; return trees[i%len(trees)] }
	if n := testing.AllocsPerRun(100, func() { sh.AddTree(next()) }); n != 0 {
		t.Errorf("AddTree allocates %v/op on a warm shard, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sh.AddTree(next()); sh.Len() }); n != 0 {
		t.Errorf("AddTree + Len allocates %v/op on a warm shard, want 0", n)
	}
}
