package core

// This file reconstructs the paper's Figure 1 running example as closely
// as the available text allows. The published scan of Figure 1 and
// Table 1 is too degraded to recover node-for-node, so the trees below
// are built to satisfy every statement the running text makes about them:
//
//   - In T2, nodes 2 and 3 carry the same label "a" and nodes 5 and 6
//     carry the same label "c" (§2).
//   - "Node 2 and node 6, node 3 and node 5 respectively, is an
//     aunt–niece pair with cousin distance 0.5 … the cousin pair (a, c)
//     with distance 0.5 occurs 2 times totally in tree T2, and hence
//     (a, c, 0.5, 2) is a valid cousin pair item in T2" (§2).
//   - A cousin pair occurring once at distance 0 and once at distance 1
//     in the same tree aggregates to occurrence 2 under the wildcard
//     distance (§2's (l1, l2, *, 2) example).
//   - The support of a label pair at a fixed distance counts only trees
//     realizing that distance, while ignoring the distance raises the
//     support (§2's frequent-pair example: support 2 at distance 1,
//     support 3 with distance ignored).

import (
	"testing"

	"treemine/internal/tree"
)

// paperT2 builds the reconstructed T2:
//
//	 1(unlabeled)
//	 /         \
//	2:a         3:a
//	 |           |
//	5:c         6:c
func paperT2() *tree.Tree {
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	n2 := b.Child(r, "a")
	n3 := b.Child(r, "a")
	b.Child(n2, "c")
	b.Child(n3, "c")
	return b.MustBuild()
}

// paperT1 contains (a, c) as first cousins (distance 1) and (b, d) as
// siblings.
func paperT1() *tree.Tree {
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	l := b.ChildUnlabeled(r)
	rr := b.ChildUnlabeled(r)
	b.Child(l, "a")
	b.Child(l, "b")
	b.Child(rr, "c")
	b.Child(rr, "d")
	// Give T1 the (b, d) sibling pair elsewhere.
	x := b.ChildUnlabeled(r)
	b.Child(x, "b")
	b.Child(x, "d")
	return b.MustBuild()
}

// paperT3 contains (a, c) both as siblings (distance 0) and as first
// cousins (distance 1), so its wildcard-distance item is (a, c, *, 2).
func paperT3() *tree.Tree {
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	l := b.ChildUnlabeled(r)
	b.Child(l, "a")
	b.Child(l, "c")
	m := b.ChildUnlabeled(r)
	b.Child(m, "a")
	return b.MustBuild()
}

func TestPaperExampleT2AuntNiece(t *testing.T) {
	items := Mine(paperT2(), DefaultOptions())
	// (a, c, 0.5, 2): the pair of aunt–niece pairs 2–6 and 3–5.
	if got := items[NewKey("a", "c", D(1))]; got != 2 {
		t.Errorf("(a,c,0.5) occurrences = %d, want 2", got)
	}
	// (a, a, 0, 1): nodes 2 and 3 are siblings.
	if got := items[NewKey("a", "a", D(0))]; got != 1 {
		t.Errorf("(a,a,0) occurrences = %d, want 1", got)
	}
	// (c, c, 1, 1): nodes 5 and 6 are first cousins.
	if got := items[NewKey("c", "c", D(2))]; got != 1 {
		t.Errorf("(c,c,1) occurrences = %d, want 1", got)
	}
	if len(items) != 3 {
		t.Errorf("T2 item count = %d, want 3: %v", len(items), items.Items())
	}
}

func TestPaperExampleWildcardAggregation(t *testing.T) {
	// T3 has (a,c,0,1) and (a,c,1,1); ignoring the distance gives
	// (a,c,*,2) exactly as in §2.
	items := Mine(paperT3(), DefaultOptions())
	if got := items[NewKey("a", "c", D(0))]; got != 1 {
		t.Fatalf("(a,c,0) = %d, want 1", got)
	}
	if got := items[NewKey("a", "c", D(2))]; got != 1 {
		t.Fatalf("(a,c,1) = %d, want 1", got)
	}
	agg := items.IgnoreDist()
	if got := agg[Key{"a", "c", DistWild}]; got != 2 {
		t.Fatalf("(a,c,*) = %d, want 2", got)
	}
}

func TestPaperExampleSupport(t *testing.T) {
	forest := []*tree.Tree{paperT1(), paperT2(), paperT3()}
	opts := DefaultOptions()
	// At distance 1 only T1 and T3 contain (a, c): support 2.
	if got := Support(forest, "a", "c", D(2), opts); got != 2 {
		t.Errorf("support of (a,c) at distance 1 = %d, want 2", got)
	}
	// Ignoring the distance all three trees contain (a, c): support 3.
	if got := Support(forest, "a", "c", DistWild, opts); got != 3 {
		t.Errorf("support of (a,c) ignoring distance = %d, want 3", got)
	}
}

func TestPaperExampleMineForest(t *testing.T) {
	forest := []*tree.Tree{paperT1(), paperT2(), paperT3()}
	// Distance-sensitive with the Table 2 default minsup 2.
	fp := MineForest(forest, DefaultForestOptions())
	found := false
	for _, p := range fp {
		if p.Key == NewKey("a", "c", D(2)) {
			found = true
			if p.Support != 2 {
				t.Errorf("(a,c,1) support = %d, want 2", p.Support)
			}
		}
		if p.Support < 2 {
			t.Errorf("pair %v below minsup", p)
		}
	}
	if !found {
		t.Errorf("(a,c,1) not frequent; got %v", fp)
	}

	// Distance-insensitive: (a,c) supported by all three trees.
	opts := DefaultForestOptions()
	opts.IgnoreDist = true
	fp = MineForest(forest, opts)
	if len(fp) == 0 || fp[0].Key != (Key{"a", "c", DistWild}) || fp[0].Support != 3 {
		t.Fatalf("distance-insensitive head = %v, want (a,c,*) support 3", fp)
	}
}
