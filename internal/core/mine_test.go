package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"treemine/internal/tree"
)

// handTree builds the fully hand-analyzed example
//
//	    r(unlabeled)
//	   /     |    \
//	  a      b     u(unlabeled)
//	 / \     |      \
//	c   d    e       f
//	|
//	g
func handTree(t *testing.T) *tree.Tree {
	t.Helper()
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	a := b.Child(r, "a")
	bb := b.Child(r, "b")
	u := b.ChildUnlabeled(r)
	c := b.Child(a, "c")
	b.Child(a, "d")
	b.Child(bb, "e")
	b.Child(u, "f")
	b.Child(c, "g")
	return b.MustBuild()
}

// handItems is the complete expected item set for handTree with
// maxdist = 2, derived by hand in the test file.
func handItems() ItemSet {
	return ItemSet{
		NewKey("a", "b", D(0)): 1,
		NewKey("c", "d", D(0)): 1,
		NewKey("a", "e", D(1)): 1,
		NewKey("a", "f", D(1)): 1,
		NewKey("b", "c", D(1)): 1,
		NewKey("b", "d", D(1)): 1,
		NewKey("b", "f", D(1)): 1,
		NewKey("d", "g", D(1)): 1,
		NewKey("c", "e", D(2)): 1,
		NewKey("d", "e", D(2)): 1,
		NewKey("c", "f", D(2)): 1,
		NewKey("d", "f", D(2)): 1,
		NewKey("e", "f", D(2)): 1,
		NewKey("e", "g", D(3)): 1,
		NewKey("f", "g", D(3)): 1,
	}
}

func TestMineHandExample(t *testing.T) {
	tr := handTree(t)
	got := Mine(tr, Options{MaxDist: D(4), MinOccur: 1})
	if want := handItems(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Mine = %v\nwant %v", got.Items(), want.Items())
	}
}

func TestMineMaxDistCutoff(t *testing.T) {
	tr := handTree(t)
	got := Mine(tr, Options{MaxDist: D(1), MinOccur: 1})
	for k := range got {
		if k.D > D(1) {
			t.Errorf("item %v beyond maxdist", k)
		}
	}
	// All distance-0 and 0.5 items from the hand set must be present.
	want := 0
	for k := range handItems() {
		if k.D <= D(1) {
			want++
			if _, ok := got[k]; !ok {
				t.Errorf("missing item %v", k)
			}
		}
	}
	if len(got) != want {
		t.Errorf("got %d items, want %d", len(got), want)
	}
}

func TestMineUnlabeledExcluded(t *testing.T) {
	// Unlabeled siblings must produce no items.
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	b.ChildUnlabeled(r)
	b.ChildUnlabeled(r)
	b.Child(r, "x")
	tr := b.MustBuild()
	got := Mine(tr, Options{MaxDist: D(4), MinOccur: 1})
	if len(got) != 0 {
		t.Fatalf("Mine = %v, want empty", got.Items())
	}
}

func TestMineRepeatedLabels(t *testing.T) {
	// Three siblings labeled "x": C(3,2)=3 sibling pairs aggregate to
	// (x,x,0,3).
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	b.Child(r, "x")
	b.Child(r, "x")
	b.Child(r, "x")
	tr := b.MustBuild()
	got := Mine(tr, DefaultOptions())
	want := ItemSet{NewKey("x", "x", D(0)): 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Mine = %v, want %v", got.Items(), want.Items())
	}
}

func TestMineMinOccurFilters(t *testing.T) {
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	b.Child(r, "x")
	b.Child(r, "x")
	b.Child(r, "y")
	tr := b.MustBuild()
	// (x,x,0,1), (x,y,0,2): with minoccur 2 only (x,y) survives.
	got := Mine(tr, Options{MaxDist: D(3), MinOccur: 2})
	want := ItemSet{NewKey("x", "y", D(0)): 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Mine = %v, want %v", got.Items(), want.Items())
	}
}

func TestMineSingleNode(t *testing.T) {
	b := tree.NewBuilder()
	b.Root("solo")
	tr := b.MustBuild()
	if got := Mine(tr, DefaultOptions()); len(got) != 0 {
		t.Fatalf("Mine(single) = %v", got.Items())
	}
}

func TestMineParentChildExcluded(t *testing.T) {
	// A labeled chain has no cousin pairs at all: every pair is an
	// ancestor–descendant pair, which the paper excludes.
	b := tree.NewBuilder()
	b.Path(b.Root("a"), "b", "c", "d")
	tr := b.MustBuild()
	if got := Mine(tr, Options{MaxDist: D(10), MinOccur: 1}); len(got) != 0 {
		t.Fatalf("Mine(chain) = %v, want empty", got.Items())
	}
}

func TestMineTwiceRemovedUndefined(t *testing.T) {
	// u at depth 1 and v at depth 3 below their LCA differ by two
	// generations: no cousin distance is defined for them.
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	b.Child(r, "u")
	side := b.ChildUnlabeled(r)
	deep := b.ChildUnlabeled(side)
	b.Child(deep, "v")
	tr := b.MustBuild()
	if got := Mine(tr, Options{MaxDist: D(10), MinOccur: 1}); len(got) != 0 {
		t.Fatalf("Mine = %v, want empty (twice removed)", got.Items())
	}
}

func TestMinePairsMatchesMine(t *testing.T) {
	tr := handTree(t)
	opts := Options{MaxDist: D(4), MinOccur: 1}
	pairs := MinePairs(tr, opts)
	agg := make(ItemSet)
	seen := map[[2]tree.NodeID]bool{}
	for _, p := range pairs {
		u, v := p.U, p.V
		if v < u {
			u, v = v, u
		}
		if seen[[2]tree.NodeID{u, v}] {
			t.Fatalf("node pair (%d,%d) emitted twice", u, v)
		}
		seen[[2]tree.NodeID{u, v}] = true
		agg[NewKey(tr.MustLabel(p.U), tr.MustLabel(p.V), p.D)]++
	}
	if want := Mine(tr, opts); !reflect.DeepEqual(agg, want) {
		t.Fatalf("aggregated pairs %v != Mine %v", agg.Items(), want.Items())
	}
}

// randLabeledTree builds a random tree with labels drawn from a small
// alphabet (forcing collisions) and ~20% unlabeled nodes.
func randLabeledTree(rng *rand.Rand, n int) *tree.Tree {
	labels := []string{"a", "b", "c", "d"}
	b := tree.NewBuilder()
	if rng.Intn(2) == 0 {
		b.RootUnlabeled()
	} else {
		b.Root(labels[rng.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		p := tree.NodeID(rng.Intn(i))
		if rng.Intn(5) == 0 {
			b.ChildUnlabeled(p)
		} else {
			b.Child(p, labels[rng.Intn(len(labels))])
		}
	}
	return b.MustBuild()
}

func TestMineCountsEquivalentToMine(t *testing.T) {
	f := func(seed int64, size uint8, maxD uint8, minOcc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%60 + 1
		tr := randLabeledTree(rng, n)
		opts := Options{MaxDist: Dist(maxD % 8), MinOccur: int(minOcc%3) + 1}
		a := Mine(tr, opts)
		b := MineCounts(tr, opts)
		if !reflect.DeepEqual(a, b) {
			t.Logf("seed=%d n=%d opts=%+v\nmine=%v\ncounts=%v",
				seed, n, opts, a.Items(), b.Items())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMineDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randLabeledTree(rng, 80)
	a := Mine(tr, DefaultOptions())
	b := Mine(tr, DefaultOptions())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Mine not deterministic")
	}
}
