package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"treemine/internal/oracle"
	"treemine/internal/tree"
)

// randAlphaTree builds a random tree over the first alpha labels l0..l<n>,
// with ~20% unlabeled nodes. A bigger alphabet exercises different
// accumulator shapes than randLabeledTree's four labels.
func randAlphaTree(rng *rand.Rand, n, alpha int) *tree.Tree {
	lbl := func() string { return fmt.Sprintf("l%d", rng.Intn(alpha)) }
	b := tree.NewBuilder()
	if rng.Intn(2) == 0 {
		b.RootUnlabeled()
	} else {
		b.Root(lbl())
	}
	for i := 1; i < n; i++ {
		p := tree.NodeID(rng.Intn(i))
		if rng.Intn(5) == 0 {
			b.ChildUnlabeled(p)
		} else {
			b.Child(p, lbl())
		}
	}
	return b.MustBuild()
}

// TestMineInternedMatchesStringPathAndOracle is the headline property
// test for the interned core: across random trees, alphabet sizes,
// maxdist values (including ones past MaxPackedDist, which take the
// string fallback), and minoccur values, Mine must agree with the
// brute-force oracle.
func TestMineInternedMatchesStringPathAndOracle(t *testing.T) {
	f := func(seed int64, size, alpha, maxD, minOcc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%60 + 1
		a := int(alpha)%12 + 1
		opts := Options{
			// 0..19 halves: roughly a third of the runs exceed
			// MaxPackedDist (14) and exercise the fallback.
			MaxDist:  Dist(int(maxD) % 20),
			MinOccur: int(minOcc)%3 + 1,
		}
		tr := randAlphaTree(rng, n, a)
		got := Mine(tr, opts)
		if slow := naiveMine(tr, opts); !reflect.DeepEqual(got, slow) {
			t.Logf("n=%d a=%d opts=%+v: interned %v != naive %v", n, a, opts, got.Items(), slow.Items())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMineCountsInternedMatchesMine re-checks the counting miner on the
// wider alphabet/maxdist space, including the string fallback region.
func TestMineCountsInternedMatchesMine(t *testing.T) {
	f := func(seed int64, size, alpha, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randAlphaTree(rng, int(size)%60+1, int(alpha)%12+1)
		opts := Options{MaxDist: Dist(int(maxD) % 20), MinOccur: 1}
		got := MineCounts(tr, opts)
		want := Mine(tr, opts)
		if !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: MineCounts %v != Mine %v", opts, got.Items(), want.Items())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMineMapModeAccumulator forces the dense accumulator over its cell
// budget (alphabet² × distances > maxDenseCells) so the interned path
// runs in map mode end to end, then checks against the oracle.
func TestMineMapModeAccumulator(t *testing.T) {
	// 1100 distinct labels, maxdist 0 → 1100²·1 cells > 1<<20.
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1500; i++ {
		b.Child(r, fmt.Sprintf("l%d", rng.Intn(1100)))
	}
	tr := b.MustBuild()
	opts := Options{MaxDist: D(0), MinOccur: 1}
	got := Mine(tr, opts)
	if want := naiveMine(tr, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("map-mode Mine: %d items, naive %d items, sets differ", len(got), len(want))
	}
}

// randForest builds a small forest sharing one alphabet so pairs recur
// across trees and support counting has work to do.
func randForest(rng *rand.Rand, trees, size, alpha int) []*tree.Tree {
	out := make([]*tree.Tree, trees)
	for i := range out {
		out[i] = randAlphaTree(rng, rng.Intn(size)+1, alpha)
	}
	return out
}

// TestMineForestInternedMatchesGeneric checks the interned forest miner
// (and its parallel variant, at several worker counts) against the
// oracle's string-keyed forest support across random forests, with and
// without IgnoreDist.
func TestMineForestInternedMatchesGeneric(t *testing.T) {
	f := func(seed int64, nt, size, alpha, maxD, minSup uint8, ignore bool) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := randForest(rng, int(nt)%6+1, int(size)%40+1, int(alpha)%8+1)
		opts := ForestOptions{
			Options:    Options{MaxDist: Dist(int(maxD) % 8), MinOccur: 1},
			MinSup:     int(minSup)%3 + 1,
			IgnoreDist: ignore,
		}
		want := naiveForest(forest, opts)
		if got := MineForest(forest, opts); !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: MineForest %v != oracle %v", opts, got, want)
			return false
		}
		for _, workers := range []int{2, 3} {
			if got := MineForestParallel(forest, opts, workers); !reflect.DeepEqual(got, want) {
				t.Logf("opts=%+v workers=%d: parallel %v != oracle %v", opts, workers, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestTDistInternedMatchesStringPath checks that the interned TDist
// (shared symbol table + packed profiles) returns exactly the floats
// the oracle's map-based distance computes, for every variant.
func TestTDistInternedMatchesStringPath(t *testing.T) {
	variants := []Variant{VariantLabel, VariantDist, VariantOccur, VariantDistOccur}
	f := func(seed int64, n1, n2, alpha, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alpha)%8 + 1
		t1 := randAlphaTree(rng, int(n1)%40+1, a)
		t2 := randAlphaTree(rng, int(n2)%40+1, a)
		opts := Options{MaxDist: Dist(int(maxD) % 8), MinOccur: 1}
		sets := naiveSets(opts, t1, t2)
		for _, v := range variants {
			got := TDist(t1, t2, v, opts)
			want := oracle.TDist(sets[0], sets[1], oracle.View(v))
			if got != want {
				t.Logf("%s opts=%+v: TDist %v != map oracle %v", v, opts, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSimInternedMatchesStringPath does the same for the asymmetric
// similarity measure and its forest average.
func TestSimInternedMatchesStringPath(t *testing.T) {
	f := func(seed int64, n1, n2, alpha, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alpha)%8 + 1
		c := randAlphaTree(rng, int(n1)%40+1, a)
		tt := randAlphaTree(rng, int(n2)%40+1, a)
		opts := Options{MaxDist: Dist(int(maxD) % 8), MinOccur: 1}
		got := Sim(c, tt, opts)
		sets := naiveSets(opts, c, tt)
		want := oracle.Sim(sets[0], sets[1])
		if got != want {
			t.Logf("opts=%+v: Sim %v != map oracle %v", opts, got, want)
			return false
		}
		set := []*tree.Tree{tt, randAlphaTree(rng, 20, a)}
		avg := AvgSim(c, set, opts)
		sets = append(sets, naiveSets(opts, set[1])...)
		wantAvg := (oracle.Sim(sets[0], sets[1]) + oracle.Sim(sets[0], sets[2])) / 2
		if avg != wantAvg {
			t.Logf("opts=%+v: AvgSim %v != %v", opts, avg, wantAvg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMineDPInternedMatchesMine covers the histogram-DP miner on the
// wider space, including the >MaxPackedDist region where it delegates.
func TestMineDPInternedMatchesMine(t *testing.T) {
	f := func(seed int64, size, alpha, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randAlphaTree(rng, int(size)%50+1, int(alpha)%8+1)
		opts := Options{MaxDist: Dist(int(maxD) % 20), MinOccur: 1}
		got := MineDP(tr, opts)
		want := Mine(tr, opts)
		if !reflect.DeepEqual(got, want) {
			t.Logf("opts=%+v: MineDP %v != Mine %v", opts, got.Items(), want.Items())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMinerPoolReuseIsClean mines trees of very different shapes through
// the shared pool back to back; stale buckets or un-drained accumulator
// cells from a previous tree would corrupt the later results.
func TestMinerPoolReuseIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	opts := Options{MaxDist: D(6), MinOccur: 1}
	for round := 0; round < 30; round++ {
		tr := randAlphaTree(rng, rng.Intn(80)+1, rng.Intn(10)+1)
		if got, want := Mine(tr, opts), naiveMine(tr, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: pooled Mine diverged from oracle", round)
		}
	}
}
