package freetree

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"treemine/internal/core"
	"treemine/internal/oracle"
)

// naiveSet is the oracle's brute-force item set of g: BFS from every
// labeled node, d = n/2 − 1 (Eq. 7).
func naiveSet(g *Graph, opts core.Options) oracle.Items {
	return oracle.MineFree(oracle.Graph{Labels: g.labels, Labeled: g.labeled, Adj: g.adj}, int(opts.MaxDist), opts.MinOccur)
}

// naiveMine is naiveSet in core's types.
func naiveMine(g *Graph, opts core.Options) core.ItemSet {
	out := core.ItemSet{}
	for k, n := range naiveSet(g, opts) {
		out[core.Key{A: k.A, B: k.B, D: core.Dist(k.D)}] = n
	}
	return out
}

// naiveForest is the oracle's forest support over naiveSet's sets.
func naiveForest(graphs []*Graph, opts core.ForestOptions) []core.FrequentPair {
	sets := make([]oracle.Items, len(graphs))
	for i, g := range graphs {
		sets[i] = naiveSet(g, opts.Options)
	}
	var out []core.FrequentPair
	for _, p := range oracle.Forest(sets, opts.MinSup, opts.IgnoreDist) {
		out = append(out, core.FrequentPair{Key: core.Key{A: p.Key.A, B: p.Key.B, D: core.Dist(p.Key.D)}, Support: p.Support})
	}
	return out
}

// path builds the labeled path a—b—c—…
func path(t *testing.T, labels ...string) *Graph {
	t.Helper()
	g := NewGraph()
	prev := -1
	for _, l := range labels {
		n := g.AddNode(l)
		if prev >= 0 {
			if err := g.AddEdge(prev, n); err != nil {
				t.Fatal(err)
			}
		}
		prev = n
	}
	return g
}

func TestGraphValidate(t *testing.T) {
	if err := NewGraph().Validate(); err != nil {
		t.Errorf("empty graph: %v", err)
	}
	g := path(t, "a", "b", "c")
	if err := g.Validate(); err != nil {
		t.Errorf("path: %v", err)
	}
	// Cycle.
	g = path(t, "a", "b", "c")
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle err = %v", err)
	}
	// Disconnected.
	g = NewGraph()
	g.AddNode("a")
	g.AddNode("b")
	if err := g.Validate(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected err = %v", err)
	}
}

func TestGraphAddEdgeErrors(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if err := g.AddEdge(a, a); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(a, 99); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, a); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestMinePathDistances(t *testing.T) {
	// On the path a—b—c—d—e: pairs two edges apart have distance 0,
	// three apart 0.5, four apart 1; adjacent pairs are excluded.
	g := path(t, "a", "b", "c", "d", "e")
	items, err := Mine(g, core.Options{MaxDist: core.D(4), MinOccur: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := core.ItemSet{
		core.NewKey("a", "c", core.D(0)): 1,
		core.NewKey("b", "d", core.D(0)): 1,
		core.NewKey("c", "e", core.D(0)): 1,
		core.NewKey("a", "d", core.D(1)): 1,
		core.NewKey("b", "e", core.D(1)): 1,
		core.NewKey("a", "e", core.D(2)): 1,
	}
	if !reflect.DeepEqual(items, want) {
		t.Fatalf("Mine(path) = %v\nwant %v", items.Items(), want.Items())
	}
}

func TestMineStar(t *testing.T) {
	// Star with center c and leaves x,y,z: every leaf pair is two edges
	// apart (distance 0); center–leaf pairs are adjacent and excluded.
	g := NewGraph()
	c := g.AddNode("c")
	for _, l := range []string{"x", "y", "z"} {
		n := g.AddNode(l)
		if err := g.AddEdge(c, n); err != nil {
			t.Fatal(err)
		}
	}
	items, err := Mine(g, core.Options{MaxDist: core.D(4), MinOccur: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := core.ItemSet{
		core.NewKey("x", "y", core.D(0)): 1,
		core.NewKey("x", "z", core.D(0)): 1,
		core.NewKey("y", "z", core.D(0)): 1,
	}
	if !reflect.DeepEqual(items, want) {
		t.Fatalf("Mine(star) = %v\nwant %v", items.Items(), want.Items())
	}
}

func TestMinePaperCombinationExample(t *testing.T) {
	// §6: for distance 2 the level combinations are (1,5) … (5,1):
	// n = 6 edges. On a path of 7 labeled nodes the endpoints are 6
	// edges apart, so exactly one pair at distance 2. Rooted at n1, the
	// pair is the vertical (0,6).
	g := path(t, "n1", "n2", "n3", "n4", "n5", "n6", "n7")
	items, err := Mine(g, core.Options{MaxDist: core.D(4), MinOccur: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := items[core.NewKey("n1", "n7", core.D(4))]; got != 1 {
		t.Fatalf("(n1,n7,2) = %d, want 1; items %v", got, items.Items())
	}
}

func TestMineInvalidGraph(t *testing.T) {
	g := NewGraph()
	g.AddNode("a")
	g.AddNode("b") // disconnected
	if _, err := Mine(g, core.DefaultOptions()); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v", err)
	}
}

func TestMineTinyGraphs(t *testing.T) {
	// Empty, single node, and single edge all mine to nothing.
	for _, g := range []*Graph{
		NewGraph(),
		func() *Graph { g := NewGraph(); g.AddNode("a"); return g }(),
		path(t, "a", "b"),
	} {
		items, err := Mine(g, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 0 {
			t.Fatalf("items = %v, want empty", items.Items())
		}
	}
}

// randFreeTree builds a random free tree: node i connects to a random
// earlier node.
func randFreeTree(rng *rand.Rand, n int) *Graph {
	labels := []string{"a", "b", "c", "d"}
	g := NewGraph()
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			g.AddNodeUnlabeled()
		} else {
			g.AddNode(labels[rng.Intn(len(labels))])
		}
		if i > 0 {
			if err := g.AddEdge(i, rng.Intn(i)); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func TestMineEquivalentToNaive(t *testing.T) {
	f := func(seed int64, size uint8, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%40 + 1
		g := randFreeTree(rng, n)
		// Up to 20 halves: past core.MaxPackedDist (14) the string-keyed
		// path runs the unrooted rule.
		opts := core.Options{MaxDist: core.Dist(maxD % 21), MinOccur: 1}
		fast, err := Mine(g, opts)
		if err != nil {
			t.Logf("Mine error: %v", err)
			return false
		}
		if slow := naiveMine(g, opts); !reflect.DeepEqual(fast, slow) {
			t.Logf("seed=%d n=%d maxdist=%s\nfast=%v\nslow=%v",
				seed, n, opts.MaxDist, fast.Items(), slow.Items())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMineRootEdgeIndependence(t *testing.T) {
	// The result must not depend on where the free tree is rooted. Mine
	// orients it from node 0, so reorder node insertion to vary the
	// root and compare.
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%25 + 2
		g1 := randFreeTree(rng, n)
		// Rebuild the same graph with nodes inserted in reverse.
		g2 := NewGraph()
		for i := n - 1; i >= 0; i-- {
			if l, ok := g1.Label(i); ok {
				g2.AddNode(l)
			} else {
				g2.AddNodeUnlabeled()
			}
		}
		for u := 0; u < n; u++ {
			for _, v := range g1.Neighbors(u) {
				if u < v {
					if err := g2.AddEdge(n-1-u, n-1-v); err != nil {
						panic(err)
					}
				}
			}
		}
		opts := core.Options{MaxDist: core.D(5), MinOccur: 1}
		a, err1 := Mine(g1, opts)
		b, err2 := Mine(g2, opts)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMineForestFreeTrees(t *testing.T) {
	g1 := path(t, "a", "b", "c")
	g2 := path(t, "a", "x", "c")
	g3 := path(t, "a", "y", "c", "d")
	opts := core.DefaultForestOptions()
	fp, err := MineForest([]*Graph{g1, g2, g3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// (a, c, 0) occurs in all three.
	if len(fp) == 0 || fp[0].Key != core.NewKey("a", "c", core.D(0)) || fp[0].Support != 3 {
		t.Fatalf("MineForest = %v", fp)
	}
	// Invalid member graph surfaces an error.
	bad := NewGraph()
	bad.AddNode("q")
	bad.AddNode("r")
	if _, err := MineForest([]*Graph{g1, bad}, opts); err == nil {
		t.Fatal("expected error for invalid graph in forest")
	}
}

// TestMineForestEquivalentToNaive quick-checks MineForest against
// per-graph brute-force support over random forests: MinOccur 1–3,
// IgnoreDist on and off, and maxdist up to 20 halves, so both the packed
// shard and the string-keyed one past core.MaxPackedDist run.
func TestMineForestEquivalentToNaive(t *testing.T) {
	f := func(seed int64, count, maxD, minOccur uint8, ignore bool) bool {
		rng := rand.New(rand.NewSource(seed))
		graphs := make([]*Graph, int(count)%6+1)
		for i := range graphs {
			graphs[i] = randFreeTree(rng, rng.Intn(30)+1)
		}
		opts := core.ForestOptions{
			Options:    core.Options{MaxDist: core.Dist(maxD % 21), MinOccur: int(minOccur)%3 + 1},
			MinSup:     rng.Intn(3) + 1,
			IgnoreDist: ignore,
		}
		fast, err := MineForest(graphs, opts)
		if err != nil {
			t.Logf("MineForest error: %v", err)
			return false
		}
		if slow := naiveForest(graphs, opts); !reflect.DeepEqual(fast, slow) {
			t.Logf("seed=%d opts=%+v\nfast=%v\nslow=%v", seed, opts, fast, slow)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMineShapes pins Mine to the oracle on the shapes where the rooted
// conversion has its special cases: unlabeled hubs, stars rooted at the
// center and at a leaf, paths rooted at an end and in the middle, and
// labeled nodes with one child (vertical pairs under an only child).
func TestMineShapes(t *testing.T) {
	star := func(center bool, leaves int) *Graph {
		g := NewGraph()
		if center {
			g.AddNode("c")
		} else {
			g.AddNodeUnlabeled()
		}
		for i := 0; i < leaves; i++ {
			if err := g.AddEdge(0, g.AddNode(string(rune('a'+i%3)))); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	// leafStar is a star whose node 0 — the root Mine orients from — is a
	// leaf, so the center is a labeled node with many children below an
	// only child.
	leafStar := func() *Graph {
		g := NewGraph()
		leaf := g.AddNode("x")
		c := g.AddNode("c")
		if err := g.AddEdge(leaf, c); err != nil {
			t.Fatal(err)
		}
		for _, l := range []string{"a", "b", "a"} {
			if err := g.AddEdge(c, g.AddNode(l)); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	// midPath is a labeled path whose node 0 sits in the middle.
	midPath := func() *Graph {
		g := NewGraph()
		mid := g.AddNode("m")
		for _, side := range [][]string{{"a", "b", "c", "d"}, {"a", "b", "e"}} {
			prev := mid
			for _, l := range side {
				n := g.AddNode(l)
				if err := g.AddEdge(prev, n); err != nil {
					t.Fatal(err)
				}
				prev = n
			}
		}
		return g
	}
	// unlabeledChain alternates labeled and unlabeled nodes on a path,
	// with an unlabeled node 0.
	unlabeledChain := func() *Graph {
		g := NewGraph()
		prev := g.AddNodeUnlabeled()
		for i := 0; i < 8; i++ {
			var n int
			if i%2 == 0 {
				n = g.AddNode(string(rune('a' + i%3)))
			} else {
				n = g.AddNodeUnlabeled()
			}
			if err := g.AddEdge(prev, n); err != nil {
				t.Fatal(err)
			}
			prev = n
		}
		return g
	}
	graphs := map[string]*Graph{
		"star":            star(true, 5),
		"unlabeled hub":   star(false, 6),
		"star from leaf":  leafStar(),
		"path from end":   path(t, "a", "b", "a", "c", "b", "a", "d", "e"),
		"path from mid":   midPath(),
		"unlabeled chain": unlabeledChain(),
	}
	for name, g := range graphs {
		for _, md := range []core.Dist{0, 1, 2, 5, 14, 15, 20} {
			opts := core.Options{MaxDist: md, MinOccur: 1}
			fast, err := Mine(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if slow := naiveMine(g, opts); !reflect.DeepEqual(fast, slow) {
				t.Errorf("%s maxdist=%s:\nfast=%v\nslow=%v", name, md, fast.Items(), slow.Items())
			}
		}
	}
}
