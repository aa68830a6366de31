package freetree

import (
	"math/rand"
	"reflect"
	"testing"

	"treemine/internal/core"
	"treemine/internal/likelihood"
	"treemine/internal/newick"
	"treemine/internal/seqsim"
	"treemine/internal/treegen"
)

func TestFromTreeBasic(t *testing.T) {
	tr, err := newick.Parse("((a,b),(c,d));")
	if err != nil {
		t.Fatal(err)
	}
	g := FromTree(tr, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Size() != tr.Size() {
		t.Fatalf("size = %d, want %d", g.Size(), tr.Size())
	}
}

func TestFromTreeSuppressRoot(t *testing.T) {
	tr, err := newick.Parse("((a,b),(c,d));")
	if err != nil {
		t.Fatal(err)
	}
	g := FromTree(tr, true)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Size() != tr.Size()-1 {
		t.Fatalf("size = %d, want %d (root suppressed)", g.Size(), tr.Size()-1)
	}
	// The two former root children are now adjacent: path a–…–c has 3
	// edges, so dist(a, c) = 0.5 in the unrooted view.
	items, err := Mine(g, core.Options{MaxDist: core.D(4), MinOccur: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := core.ItemSet{
		core.NewKey("a", "b", core.D(0)): 1,
		core.NewKey("c", "d", core.D(0)): 1,
		core.NewKey("a", "c", core.D(1)): 1,
		core.NewKey("a", "d", core.D(1)): 1,
		core.NewKey("b", "c", core.D(1)): 1,
		core.NewKey("b", "d", core.D(1)): 1,
	}
	if !reflect.DeepEqual(items, want) {
		t.Fatalf("items = %v\nwant %v", items.Items(), want.Items())
	}
}

func TestFromTreeNoSuppressWhenRootLabeledOrWide(t *testing.T) {
	labeled, err := newick.Parse("((a,b),(c,d))root;")
	if err != nil {
		t.Fatal(err)
	}
	if g := FromTree(labeled, true); g.Size() != labeled.Size() {
		t.Fatal("labeled root must not be suppressed")
	}
	wide, err := newick.Parse("(a,b,c);")
	if err != nil {
		t.Fatal(err)
	}
	if g := FromTree(wide, true); g.Size() != wide.Size() {
		t.Fatal("degree-3 root must not be suppressed")
	}
}

func TestFromTreeRandomValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		tr := treegen.Yule(rng, treegen.Alphabet(rng.Intn(10)+2))
		for _, suppress := range []bool{false, true} {
			g := FromTree(tr, suppress)
			if err := g.Validate(); err != nil {
				t.Fatalf("trial %d suppress=%v: %v", trial, suppress, err)
			}
		}
	}
}

// TestMLToFreeTreePipeline exercises the §6 story end to end: an ML
// search produces a (rooted-representation) tree, unrooting gives the
// UAG, and free-tree mining extracts its cousin pairs.
func TestMLToFreeTreePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	taxa := treegen.Alphabet(6)
	model := treegen.Yule(rng, taxa)
	a, err := seqsim.Evolve(rng, model, 200, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	ml, _, err := likelihood.Search(rng, a, likelihood.SearchConfig{Starts: 4, MaxRounds: 40, BranchLen: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	g := FromTree(ml, true)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	items, err := Mine(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("ML free tree mined to nothing")
	}
	// Cross-check against the oracle.
	if slow := naiveMine(g, core.DefaultOptions()); !reflect.DeepEqual(items, slow) {
		t.Fatal("fast and naive free-tree mining disagree on the ML tree")
	}
}
