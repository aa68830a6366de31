package freetree

import (
	"math/rand"
	"reflect"
	"testing"

	"treemine/internal/core"
	"treemine/internal/likelihood"
	"treemine/internal/newick"
	"treemine/internal/seqsim"
	"treemine/internal/tree"
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

// FromTree converts a rooted tree into the corresponding free tree
// (UAG): nodes map one-to-one and every parent–child edge becomes an
// undirected edge. When suppressRoot is set and the root is an unlabeled
// degree-2 node — the shape a rooted binary phylogeny gets from rooting
// an inherently unrooted ML/MP result — the root is removed and its two
// children joined directly, undoing the rooting exactly as §6's Figure
// 11 depicts in reverse.
func FromTree(t *tree.Tree, suppressRoot bool) *Graph {
	g := NewGraph()
	suppress := suppressRoot && !t.Labeled(t.Root()) && t.NumChildren(t.Root()) == 2

	// id[n] is the graph node for tree node n; the suppressed root gets
	// no graph node.
	id := make([]int, t.Size())
	for _, n := range t.Nodes() {
		if suppress && n == t.Root() {
			id[n] = -1
			continue
		}
		if l, ok := t.Label(n); ok {
			id[n] = g.AddNode(l)
		} else {
			id[n] = g.AddNodeUnlabeled()
		}
	}
	for _, n := range t.Nodes() {
		p := t.Parent(n)
		if p == tree.None {
			continue
		}
		if suppress && p == t.Root() {
			continue // handled below
		}
		// Adding each child edge once keeps the edge set exact.
		if err := g.AddEdge(id[p], id[n]); err != nil {
			panic(err) // unreachable: tree edges are unique, no self-loops
		}
	}
	if suppress {
		kids := t.Children(t.Root())
		if err := g.AddEdge(id[kids[0]], id[kids[1]]); err != nil {
			panic(err) // unreachable for a valid tree
		}
	}
	return g
}
