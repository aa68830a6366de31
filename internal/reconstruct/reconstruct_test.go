package reconstruct

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"treemine/internal/newick"
	"treemine/internal/oracle"
	"treemine/internal/seqsim"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

func TestValidateErrors(t *testing.T) {
	if _, err := UPGMA([]string{"a"}, [][]float64{{0}}); !errors.Is(err, ErrTooFewTaxa) {
		t.Errorf("one taxon err = %v", err)
	}
	bad := [][]float64{{0, 1}, {1, 0}, {0, 0}}
	if _, err := UPGMA([]string{"a", "b"}, bad); !errors.Is(err, ErrBadMatrix) {
		t.Errorf("wrong rows err = %v", err)
	}
	asym := [][]float64{{0, 1}, {2, 0}}
	if _, err := NeighborJoining([]string{"a", "b"}, asym); !errors.Is(err, ErrBadMatrix) {
		t.Errorf("asymmetric err = %v", err)
	}
	negDiag := [][]float64{{1, 1}, {1, 0}}
	if _, err := UPGMA([]string{"a", "b"}, negDiag); !errors.Is(err, ErrBadMatrix) {
		t.Errorf("diagonal err = %v", err)
	}
	neg := [][]float64{{0, -1}, {-1, 0}}
	if _, err := UPGMA([]string{"a", "b"}, neg); !errors.Is(err, ErrBadMatrix) {
		t.Errorf("negative err = %v", err)
	}
}

func TestUPGMAUltrametric(t *testing.T) {
	// Ultrametric distances for ((a,b),(c,d)): sisters at 2, cross at 6.
	names := []string{"a", "b", "c", "d"}
	d := [][]float64{
		{0, 2, 6, 6},
		{2, 0, 6, 6},
		{6, 6, 0, 2},
		{6, 6, 2, 0},
	}
	got, err := UPGMA(names, d)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := newick.Parse("((a,b),(c,d));")
	if !tree.Isomorphic(got, want) {
		t.Fatalf("UPGMA = %v, want ((a,b),(c,d))", got)
	}
}

func TestUPGMATwoTaxa(t *testing.T) {
	got, err := UPGMA([]string{"x", "y"}, [][]float64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 3 || len(got.LeafLabels()) != 2 {
		t.Fatalf("two-taxon UPGMA = %v", got)
	}
}

func TestNJAdditive(t *testing.T) {
	// Additive (non-clock) distances on the quartet ((a,b),(c,d)) with
	// very unequal rates: a is fast-evolving. UPGMA is fooled by rate
	// variation; NJ is not — the classic separation between the methods.
	names := []string{"a", "b", "c", "d"}
	// Edge lengths: a=10, b=1, c=1, d=1, internal=1.
	d := [][]float64{
		{0, 11, 12, 12},
		{11, 0, 3, 3},
		{12, 3, 0, 2},
		{12, 3, 2, 0},
	}
	got, err := NeighborJoining(names, d)
	if err != nil {
		t.Fatal(err)
	}
	// NJ roots at the final 3-way join; check the ab and cd groupings
	// survive as clusters of the unrooted topology: at least one of
	// {a,b} or {c,d} must be an internal cluster.
	ts := tree.TaxaOf(got)
	ic := tree.InternalClusters(got, ts)
	ab := ts.ClusterOf("a", "b")
	cd := ts.ClusterOf("c", "d")
	_, hasAB := ic[ab.Key()]
	_, hasCD := ic[cd.Key()]
	if !hasAB && !hasCD {
		t.Fatalf("NJ lost the true quartet split: %v", got)
	}
}

func TestNJThreeTaxa(t *testing.T) {
	got, err := NeighborJoining([]string{"a", "b", "c"},
		[][]float64{{0, 2, 3}, {2, 0, 3}, {3, 3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumChildren(got.Root()) != 3 {
		t.Fatalf("3-taxon NJ should have trifurcating root: %v", got)
	}
}

func TestPDistance(t *testing.T) {
	a := &seqsim.Alignment{
		Taxa: []string{"x", "y", "z"},
		Seqs: map[string][]byte{
			"x": []byte("AAAA"),
			"y": []byte("AAAT"),
			"z": []byte("TTTT"),
		},
	}
	names, d, err := PDistance(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	if d[0][1] != 0.25 || d[0][2] != 1 || d[1][2] != 0.75 {
		t.Fatalf("d = %v", d)
	}
	if d[1][0] != d[0][1] {
		t.Fatal("asymmetric output")
	}
	bad := &seqsim.Alignment{Taxa: []string{"x"}, Seqs: map[string][]byte{"x": []byte("AZ")}}
	if _, _, err := PDistance(bad); err == nil {
		t.Fatal("invalid alignment accepted")
	}
}

func TestPipelineRecoverTopology(t *testing.T) {
	// End-to-end: simulate a clock-like alignment on a known tree, build
	// the p-distance matrix, and reconstruct with both methods. With a
	// strong signal both must recover the sister pairs of the model tree
	// most of the time; require at least 70% cluster recovery for UPGMA.
	rng := rand.New(rand.NewSource(8))
	taxa := treegen.Alphabet(8)
	recovered, total := 0, 0
	for trial := 0; trial < 10; trial++ {
		model := treegen.Yule(rng, taxa)
		al, err := seqsim.Evolve(rng, model, 600, 0.04)
		if err != nil {
			t.Fatal(err)
		}
		names, d, err := PDistance(al)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UPGMA(names, d)
		if err != nil {
			t.Fatal(err)
		}
		ts := tree.TaxaOf(model)
		want := tree.InternalClusters(model, ts)
		have := tree.InternalClusters(got, ts)
		for k := range want {
			total++
			if _, ok := have[k]; ok {
				recovered++
			}
		}
	}
	if ratio := float64(recovered) / float64(total); ratio < 0.7 {
		t.Fatalf("UPGMA recovered only %.0f%% of true clusters", 100*ratio)
	}
}

// diffMatrix is the seed-th matrix of the differential: n from 1 to 14
// taxa, real-valued for even seeds and small-integer for odd ones.
func diffMatrix(seed int64) ([]string, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	return randInput(rng, 1+rng.Intn(14), seed%2 == 1)
}

// randInput is a random distance matrix over n taxa t0, t1, …: entries
// in [0, 1), or with ints small integers 0–3, full of ties.
func randInput(rng *rand.Rand, n int, ints bool) ([]string, [][]float64) {
	names := make([]string, n)
	d := make([][]float64, n)
	for i := range d {
		names[i] = fmt.Sprintf("t%d", i)
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			if ints {
				v = float64(rng.Intn(4))
			}
			d[i][j], d[j][i] = v, v
		}
	}
	return names, d
}

// mergesNewick writes the rooted binary tree a merge history describes,
// each merge a node over its clusters A and B in that order.
func mergesNewick(names []string, merges []oracle.Merge) string {
	sub := append([]string(nil), names...)
	for _, m := range merges {
		sub = append(sub, "("+sub[m.A]+","+sub[m.B]+")")
	}
	return sub[len(sub)-1] + ";"
}

// TestJoinMatchesOracle: on 3,200 random matrices NeighborJoining writes
// the same Newick string as the loop it replaced. UPGMA does on the
// real-valued matrices; on the integer ones it writes the tree of the
// point-list average-linkage merges, because the replaced loop's
// weighted-average update splits exact ties by rounding.
func TestJoinMatchesOracle(t *testing.T) {
	upgmaChanged, ints := 0, 0
	for seed := int64(0); seed < 3200; seed++ {
		names, d := diffMatrix(seed)
		if len(names) < 2 {
			if _, err := UPGMA(names, d); !errors.Is(err, ErrTooFewTaxa) {
				t.Fatalf("seed %d: UPGMA on one taxon: err = %v", seed, err)
			}
			continue
		}
		write := func(build func([]string, [][]float64) (*tree.Tree, error)) string {
			tr, err := build(names, d)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return newick.Write(tr)
		}
		if got, want := write(NeighborJoining), write(oracle.NeighborJoining); got != want {
			t.Fatalf("seed %d: NJ = %s, want %s", seed, got, want)
		}
		got, old := write(UPGMA), write(oracle.UPGMA)
		want := old
		if seed%2 == 1 {
			want = mergesNewick(names, oracle.Agglomerate(d, "average"))
			ints++
			if got != old {
				upgmaChanged++
			}
		}
		if got != want {
			t.Fatalf("seed %d: UPGMA = %s, want %s", seed, got, want)
		}
	}
	t.Logf("UPGMA differs from the weighted-average loop on %d of %d integer matrices", upgmaChanged, ints)
}

func benchBuild(b *testing.B, engine, old func([]string, [][]float64) (*tree.Tree, error)) {
	names, d := randInput(rand.New(rand.NewSource(1)), 200, false)
	for _, leg := range []struct {
		name  string
		build func([]string, [][]float64) (*tree.Tree, error)
	}{{"engine", engine}, {"oracle", old}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := leg.build(names, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUPGMA builds a 200-taxon UPGMA tree with the engine and with
// the loop it replaced.
func BenchmarkUPGMA(b *testing.B) { benchBuild(b, UPGMA, oracle.UPGMA) }

// BenchmarkNeighborJoining builds a 200-taxon NJ tree with the engine
// and with the loop it replaced.
func BenchmarkNeighborJoining(b *testing.B) { benchBuild(b, NeighborJoining, oracle.NeighborJoining) }
