package treemine_test

import (
	"math/rand"
	"testing"

	"treemine"
	"treemine/internal/treegen"
)

// TestFullPipeline runs the paper's evaluation pipeline end to end
// through the public API: simulate sequences on a hidden tree, search
// for equally parsimonious trees, expand the plateau, build consensus
// trees, score them, and cross-check with distance-based reconstruction.
func TestFullPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	taxa := treegen.Alphabet(10)
	truth := treegen.Yule(rng, taxa)

	aln, err := treemine.EvolveSequences(rng, truth, 250, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Len() != 250 || aln.NumTaxa() != 10 {
		t.Fatalf("alignment %dx%d", aln.NumTaxa(), aln.Len())
	}

	truthScore, err := treemine.ParsimonyScore(truth, aln)
	if err != nil {
		t.Fatal(err)
	}

	// Warm-start the parsimony search with UPGMA.
	names, d, err := treemine.PDistance(aln)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := treemine.UPGMA(names, d)
	if err != nil {
		t.Fatal(err)
	}
	seeds, best, err := treemine.ParsimonySearch(rng, aln, treemine.ParsimonySearchConfig{
		Starts: 6, MaxTrees: 16, MaxRounds: 80, Seeds: []*treemine.Tree{seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if best > truthScore {
		t.Fatalf("search best %d worse than the true tree's score %d", best, truthScore)
	}
	set, err := treemine.ParsimonyPlateau(seeds, aln, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("empty plateau")
	}

	// Consensus across the plateau, scored by the paper's measure.
	maj, err := treemine.Consensus(treemine.Majority, set)
	if err != nil {
		t.Fatal(err)
	}
	if score := treemine.AvgSim(maj, set, treemine.DefaultOptions()); score <= 0 {
		t.Fatalf("AvgSim = %v", score)
	}
	m70, err := treemine.MajorityThreshold(set, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m70.LeafLabels()); got != 10 {
		t.Fatalf("threshold consensus taxa = %d", got)
	}

	// NJ must also produce a full tree over the taxa.
	nj, err := treemine.NeighborJoining(names, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nj.LeafLabels()); got != 10 {
		t.Fatalf("NJ taxa = %d", got)
	}
}

func TestMLFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	taxa := treegen.Alphabet(6)
	truth := treegen.Yule(rng, taxa)
	aln, err := treemine.EvolveSequences(rng, truth, 150, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	truthLL, err := treemine.MLScore(truth, aln, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, best, err := treemine.MLSearch(rng, aln, treemine.MLSearchConfig{Starts: 4, MaxRounds: 40, BranchLen: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if best < truthLL-1e-9 {
		t.Fatalf("ML search %v below truth %v", best, truthLL)
	}
	if got == nil || len(got.LeafLabels()) != 6 {
		t.Fatalf("ML tree malformed")
	}
	if _, err := treemine.MLScore(truth, aln, -1); err == nil {
		t.Fatal("bad branch length accepted")
	}
}

func TestMineForestParallelFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	taxa := treegen.Alphabet(8)
	var forest []*treemine.Tree
	for i := 0; i < 30; i++ {
		forest = append(forest, treegen.Yule(rng, taxa))
	}
	opts := treemine.DefaultForestOptions()
	serial := treemine.MineForest(forest, opts)
	parallel := treemine.MineForestParallel(forest, opts, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("parallel differs: %d vs %d", len(parallel), len(serial))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestWeightedFacade(t *testing.T) {
	wt, err := treemine.ParseNewickWeighted("(x:1,y:2);", 1)
	if err != nil {
		t.Fatal(err)
	}
	items := treemine.MineWeighted(wt, treemine.DefaultWeightedOptions())
	// wdist = (1+2)/2 − 1 = 0.5.
	if len(items) != 1 || items[0].Key.D != 0.5 {
		t.Fatalf("items = %v", items)
	}
	if _, err := treemine.ParseNewickWeighted("(x:0,y:1);", 1); err == nil {
		t.Fatal("zero branch length accepted")
	}
	if _, err := treemine.ParseNewickWeighted("((x,y);", 1); err == nil {
		t.Fatal("bad newick accepted")
	}
	// Non-finite branch lengths parse as numbers but are not weights.
	for _, w := range []string{"NaN", "Inf", "-Inf"} {
		if _, err := treemine.ParseNewickWeighted("((A:"+w+",B:1):1,C:1);", 1); err == nil {
			t.Fatalf("branch length %s accepted", w)
		}
	}
}

func TestRankByUpDownFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	taxa := treegen.Alphabet(8)
	q := treegen.Yule(rng, taxa)
	db := []*treemine.Tree{treegen.Yule(rng, taxa), q.Clone()}
	ranked := treemine.RankByUpDown(q, db, 1)
	if len(ranked) != 1 || ranked[0].Index != 1 || ranked[0].Dist != 0 {
		t.Fatalf("ranked = %+v", ranked)
	}
}

func TestStatsOfFacade(t *testing.T) {
	tr, err := treemine.ParseNewick("((a,b),(c,d,e));")
	if err != nil {
		t.Fatal(err)
	}
	s := treemine.StatsOf(tr)
	if s.Leaves != 5 || s.MaxArity != 3 {
		t.Fatalf("stats = %+v", s)
	}
}
