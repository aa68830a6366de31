package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"treemine/internal/oracle"
	"treemine/internal/tree"
)

// serialMapMatrix is the reference fill: the oracle's item set of each
// tree, then its map-based distance over the upper triangle.
func serialMapMatrix(trees []*tree.Tree, v Variant, opts Options) [][]float64 {
	n := len(trees)
	items := naiveSets(opts, trees...)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := oracle.TDist(items[i], items[j], oracle.View(v))
			out[i][j], out[j][i] = d, d
		}
	}
	return out
}

// TestTDistMatrixParallelDifferential pins the engine end to end:
// TDistMatrixParallel at several worker counts (including the serial
// fill) against the map-based per-pair reference, over random forests
// whose MaxDist sweeps the packable boundary and across all four
// variants. Running under -race (the Makefile race target matches
// "Parallel") also exercises the row work-stealing for data races.
func TestTDistMatrixParallelDifferential(t *testing.T) {
	f := func(seed int64, nt, size, alpha, maxD, vsel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := randDifferentialForest(rng, int(nt)%9, int(size)%35+1, int(alpha)%5+1)
		opts := Options{MaxDist: Dist(int(maxD) % 20), MinOccur: 1}
		v := allVariants[int(vsel)%len(allVariants)]
		want := serialMapMatrix(forest, v, opts)
		for _, workers := range []int{1, 2, 5, 0} {
			m := TDistMatrixParallel(forest, v, opts, workers)
			if m.Len() != len(forest) {
				t.Logf("workers=%d: Len %d != %d", workers, m.Len(), len(forest))
				return false
			}
			for i := 0; i < len(forest); i++ {
				for j := 0; j < len(forest); j++ {
					if got := m.At(i, j); got != want[i][j] {
						t.Logf("workers=%d v=%v opts=%+v: At(%d,%d) = %v, want %v",
							workers, v, opts, i, j, got, want[i][j])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTDistMatrixParallelRaceStress drives the work-stealing fill with
// more workers than rows and a forest big enough for real contention;
// its value is under -race, where any overlapping write or unsynchronized
// read in the row claims would trip the detector.
func TestTDistMatrixParallelRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	forest := randForest(rng, 48, 25, 4)
	opts := DefaultOptions()
	serial := TDistMatrixParallel(forest, VariantDistOccur, opts, 1)
	parallel := TDistMatrixParallel(forest, VariantDistOccur, opts, 16)
	for i := 0; i < len(forest); i++ {
		for j := i + 1; j < len(forest); j++ {
			if serial.At(i, j) != parallel.At(i, j) {
				t.Fatalf("At(%d,%d): serial %v != parallel %v", i, j, serial.At(i, j), parallel.At(i, j))
			}
		}
	}
}

// TestDistMatrixEdgeCases: empty and single-tree inputs produce valid,
// empty matrices at any worker count.
func TestDistMatrixEdgeCases(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		m := TDistMatrixParallel(nil, VariantDistOccur, DefaultOptions(), workers)
		if m.Len() != 0 || len(m.Condensed()) != 0 {
			t.Fatalf("workers=%d: empty forest matrix = %d/%d", workers, m.Len(), len(m.Condensed()))
		}
		rng := rand.New(rand.NewSource(1))
		one := randForest(rng, 1, 10, 2)
		m = TDistMatrixParallel(one, VariantDistOccur, DefaultOptions(), workers)
		if m.Len() != 1 || m.At(0, 0) != 0 {
			t.Fatalf("workers=%d: single-tree matrix Len=%d At(0,0)=%v", workers, m.Len(), m.At(0, 0))
		}
	}
}
