package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"treemine/internal/tree"
)

// randDifferentialForest builds a forest stressing the edge cases the
// miners must agree on: duplicate labels (tiny alphabets), single-node
// trees, unlabeled roots, and the empty forest (nt may be 0).
func randDifferentialForest(rng *rand.Rand, nt, size, alpha int) []*tree.Tree {
	out := make([]*tree.Tree, nt)
	for i := range out {
		switch rng.Intn(8) {
		case 0: // single labeled node
			b := tree.NewBuilder()
			b.Root("l0")
			out[i] = b.MustBuild()
		case 1: // single unlabeled node
			b := tree.NewBuilder()
			b.RootUnlabeled()
			out[i] = b.MustBuild()
		default:
			out[i] = randAlphaTree(rng, rng.Intn(size)+1, alpha)
		}
	}
	return out
}

// growingTrees returns caterpillars (a spine, one leaf per spine node)
// whose labels are drawn from a huge alphabet, so nearly every node
// brings a fresh label while the pair count stays linear in tree size:
// appended to a forest, they push a shard's alphabet past the
// dense-table limit (1,024 labels at a single distance slot, fewer at
// more) mid-stream, after the leading trees were counted in the dense
// pending table.
func growingTrees(rng *rand.Rand) []*tree.Tree {
	lbl := func() string { return fmt.Sprintf("g%d", rng.Intn(1<<30)) }
	out := make([]*tree.Tree, 7)
	for i := range out {
		b := tree.NewBuilder()
		spine := b.Root(lbl())
		for j := 0; j < 90; j++ {
			b.Child(spine, lbl())
			spine = b.Child(spine, lbl())
		}
		out[i] = b.MustBuild()
	}
	return out
}

// readShard calls one of the shard's reads — each drains the pending
// table — chosen by k.
func readShard(sh *SupportShard, k int) {
	switch k % 3 {
	case 0:
		sh.Len()
	case 1:
		sh.Snapshot()
	case 2:
		sh.Finalize(1)
	}
}

// streamVariants runs MineForestStream over the same forest at several
// worker counts and batch sizes (including batch 1, which exercises a
// round per tree), with the shard read between rounds, and reports the
// first divergence from want.
func streamVariants(t *testing.T, forest []*tree.Tree, opts ForestOptions, want []FrequentPair) bool {
	t.Helper()
	cases := []StreamConfig{
		{Workers: 1, BatchSize: 1},
		{Workers: 2, BatchSize: 3},
		{Workers: 4, BatchSize: 64},
	}
	for _, cfg := range cases {
		rounds := 0
		cfg.AfterRound = func(sh *SupportShard) error {
			rounds++
			readShard(sh, rounds)
			return nil
		}
		sh, err := MineForestStreamShard(NewSliceIterator(forest), opts, cfg)
		if err != nil {
			t.Logf("stream cfg=%+v: %v", cfg, err)
			return false
		}
		if got := sh.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
			t.Logf("stream cfg=%+v: %v != %v", cfg, got, want)
			return false
		}
		if sh.Trees() != len(forest) {
			t.Logf("stream cfg=%+v: Trees() = %d, want %d", cfg, sh.Trees(), len(forest))
			return false
		}
	}
	return true
}

// forestMinersAgree checks every forest miner against the naive oracle
// on one forest: MineForest, MineForestParallel at 1, 2, 4, and extra
// workers, the stream variants, and a shard fed by AddTree with reads
// interleaved at random points.
func forestMinersAgree(t *testing.T, rng *rand.Rand, forest []*tree.Tree, opts ForestOptions, extraWorkers int) bool {
	t.Helper()
	want := naiveForest(forest, opts)
	if got := MineForest(forest, opts); !reflect.DeepEqual(got, want) {
		t.Logf("opts=%+v: MineForest %v != oracle %v", opts, got, want)
		return false
	}
	for _, workers := range []int{1, 2, 4, extraWorkers} {
		if got := MineForestParallel(forest, opts, workers); !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v workers=%d: MineForestParallel %v != oracle %v", opts, workers, got, want)
			return false
		}
	}
	sh := NewSupportShard(opts)
	for _, tr := range forest {
		sh.AddTree(tr)
		if k := rng.Intn(6); k < 3 {
			readShard(sh, k)
		}
	}
	if got := sh.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Logf("opts=%+v: AddTree with interleaved reads %v != oracle %v", opts, got, want)
		return false
	}
	return streamVariants(t, forest, opts, want)
}

// TestForestMinersDifferential is the harness pinning every forest miner
// to the naive oracle: MineForestStream ≡ MineForestParallel ≡
// MineForest ≡ the oracle's brute-force per-tree support counting,
// across random forests whose MaxDist sweeps the packable boundary
// (MaxPackedDist = 14 halves; ~a quarter of the runs take the
// string-keyed fallback), with varying MinSup, MinOccur, IgnoreDist,
// duplicate labels, single-node trees, empty forests, and — for half
// the runs — trailing trees whose labels outgrow the dense pending
// table mid-stream. A fixed sweep then pins MaxDist at MaxPackedDist
// and one past it.
func TestForestMinersDifferential(t *testing.T) {
	f := func(seed int64, nt, size, alpha, maxD, minSup, minOcc, workers uint8, ignore, grow bool) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := randDifferentialForest(rng, int(nt)%7, int(size)%40+1, int(alpha)%6+1)
		if grow {
			forest = append(forest, growingTrees(rng)...)
		}
		opts := ForestOptions{
			Options: Options{
				MaxDist:  Dist(int(maxD) % 20),
				MinOccur: int(minOcc)%3 + 1,
			},
			MinSup:     int(minSup)%4 + 1,
			IgnoreDist: ignore,
		}
		return forestMinersAgree(t, rng, forest, opts, int(workers)%5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, maxD := range []Dist{MaxPackedDist, MaxPackedDist + 1} {
			for _, ignore := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed))
				forest := append(randDifferentialForest(rng, 5, 40, 4), growingTrees(rng)...)
				opts := ForestOptions{Options: Options{MaxDist: maxD, MinOccur: 1}, MinSup: 1, IgnoreDist: ignore}
				if !forestMinersAgree(t, rng, forest, opts, 3) {
					t.Fatalf("seed=%d maxdist=%s ignore=%v: forest miners disagree", seed, maxD, ignore)
				}
			}
		}
	}
}

// buildShard folds the trees into a fresh shard serially.
func buildShard(trees []*tree.Tree, opts ForestOptions) *SupportShard {
	sh := NewSupportShard(opts)
	for _, t := range trees {
		sh.AddTree(t)
	}
	return sh
}

// TestShardMergeCommutesAndAssociates checks the algebra streaming
// correctness rests on: splitting a forest into shards and merging them
// in any association — Merge(a,b), Merge(b,a), left-leaning, right-
// leaning, and a random merge tree — always finalizes to the forest's
// MineForest result.
func TestShardMergeCommutesAndAssociates(t *testing.T) {
	f := func(seed int64, nt, size, alpha, maxD, cut1, cut2 uint8, ignore bool) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := randDifferentialForest(rng, int(nt)%9+3, int(size)%30+1, int(alpha)%5+1)
		opts := ForestOptions{
			Options:    Options{MaxDist: Dist(int(maxD) % 18), MinOccur: 1},
			MinSup:     1, // keep every pair visible so merges are fully compared
			IgnoreDist: ignore,
		}
		// Split into three contiguous (possibly empty) parts.
		i := int(cut1) % (len(forest) + 1)
		j := int(cut2) % (len(forest) + 1)
		if j < i {
			i, j = j, i
		}
		parts := [][]*tree.Tree{forest[:i], forest[i:j], forest[j:]}
		want := MineForest(forest, opts)

		finalize := func(sh *SupportShard) []FrequentPair { return sh.Finalize(opts.MinSup) }
		merged := func(order ...int) *SupportShard {
			sh := buildShard(parts[order[0]], opts)
			for _, p := range order[1:] {
				if err := sh.Merge(buildShard(parts[p], opts)); err != nil {
					t.Fatal(err)
				}
			}
			return sh
		}
		// Commutativity over two shards.
		ab := buildShard(parts[0], opts)
		if err := ab.Merge(buildShard(append(append([]*tree.Tree{}, parts[1]...), parts[2]...), opts)); err != nil {
			t.Fatal(err)
		}
		rest := buildShard(append(append([]*tree.Tree{}, parts[1]...), parts[2]...), opts)
		if err := rest.Merge(buildShard(parts[0], opts)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(finalize(ab), finalize(rest)) {
			t.Logf("opts=%+v: Merge(a,b) != Merge(b,a)", opts)
			return false
		}
		// Every association and order over three shards.
		for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
			if got := finalize(merged(order...)); !reflect.DeepEqual(got, want) {
				t.Logf("opts=%+v order=%v: %v != %v", opts, order, got, want)
				return false
			}
		}
		// Right-leaning merge tree: a + (b + c).
		bc := buildShard(parts[1], opts)
		if err := bc.Merge(buildShard(parts[2], opts)); err != nil {
			t.Fatal(err)
		}
		a := buildShard(parts[0], opts)
		if err := a.Merge(bc); err != nil {
			t.Fatal(err)
		}
		if got := finalize(a); !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: a+(b+c) %v != %v", opts, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestShardSnapshotRestoreRoundTrip pins the serialization contract the
// store's v3 format builds on: Restore(Snapshot(sh)) finalizes
// identically, for both the packed and the string-keyed shard modes.
func TestShardSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, maxD := range []Dist{D(3), MaxPackedDist + 4} {
		for _, ignore := range []bool{false, true} {
			opts := ForestOptions{
				Options:    Options{MaxDist: maxD, MinOccur: 1},
				MinSup:     2,
				IgnoreDist: ignore,
			}
			sh := buildShard(randForest(rng, 8, 30, 4), opts)
			o, trees, labels, items := sh.Snapshot()
			back, err := RestoreShard(o, trees, labels, items)
			if err != nil {
				t.Fatalf("maxD=%v ignore=%v: restore: %v", maxD, ignore, err)
			}
			if back.Trees() != sh.Trees() {
				t.Fatalf("maxD=%v ignore=%v: trees %d != %d", maxD, ignore, back.Trees(), sh.Trees())
			}
			if got, want := back.Finalize(1), sh.Finalize(1); !reflect.DeepEqual(got, want) {
				t.Fatalf("maxD=%v ignore=%v: restored shard differs: %v != %v", maxD, ignore, got, want)
			}
		}
	}
}

// TestRestoreShardRejectsCorruptInput enumerates the invalid snapshots a
// corrupt checkpoint file could decode into; every one must error, never
// panic.
func TestRestoreShardRejectsCorruptInput(t *testing.T) {
	opts := ForestOptions{Options: Options{MaxDist: D(3), MinOccur: 1}, MinSup: 2}
	labels := []string{"a", "b"}
	cases := []struct {
		name   string
		opts   ForestOptions
		trees  int
		labels []string
		items  []ShardItem
	}{
		{"negative trees", opts, -1, labels, nil},
		{"symbol out of range", opts, 1, labels, []ShardItem{{A: 0, B: 7, D: 0, N: 1}}},
		{"zero count", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: 0, N: 0}}},
		{"negative count", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: 0, N: -4}}},
		{"distance beyond maxdist", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: 9, N: 1}}},
		{"negative distance", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: -3, N: 1}}},
		{"wild distance without ignoredist", opts, 1, labels, []ShardItem{{A: 0, B: 1, D: DistWild, N: 1}}},
		{"duplicate label", opts, 1, []string{"a", "a"}, nil},
		{
			"concrete distance under ignoredist",
			ForestOptions{Options: opts.Options, MinSup: 2, IgnoreDist: true},
			1, labels, []ShardItem{{A: 0, B: 1, D: 0, N: 1}},
		},
	}
	for _, tc := range cases {
		if _, err := RestoreShard(tc.opts, tc.trees, tc.labels, tc.items); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The valid baseline the cases deviate from must be accepted.
	if _, err := RestoreShard(opts, 1, labels, []ShardItem{{A: 0, B: 1, D: 0, N: 1}}); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}
