package weighted

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"treemine/internal/core"
	"treemine/internal/tree"
)

func TestNewValidation(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("r")
	b.Child(r, "a")
	tr := b.MustBuild()
	if _, err := New(tr, []float64{0, 1}); err != nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
	if _, err := New(tr, []float64{0}); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := New(tr, []float64{0, 0}); !errors.Is(err, ErrBadWeight) {
		t.Errorf("zero weight err = %v", err)
	}
	if _, err := New(tr, []float64{0, -2}); !errors.Is(err, ErrBadWeight) {
		t.Errorf("negative weight err = %v", err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(tr, []float64{0, w}); !errors.Is(err, ErrBadWeight) {
			t.Errorf("weight %v err = %v, want ErrBadWeight", w, err)
		}
	}
	// The root's own entry may be anything.
	if _, err := New(tr, []float64{-5, 1}); err != nil {
		t.Errorf("root weight should be ignored: %v", err)
	}
}

func TestWeightAccessor(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("r")
	c := b.Child(r, "a")
	tr := b.MustBuild()
	wt, err := New(tr, []float64{0, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if wt.Weight(c) != 2.5 {
		t.Fatalf("Weight = %v", wt.Weight(c))
	}
}

// mkWeighted builds r → (x:wx, y:wy) with labeled leaves.
func mkWeighted(t *testing.T, wx, wy float64) *Tree {
	t.Helper()
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	b.Child(r, "x")
	b.Child(r, "y")
	wt, err := New(b.MustBuild(), []float64{0, wx, wy})
	if err != nil {
		t.Fatal(err)
	}
	return wt
}

func TestMineWeightedSiblings(t *testing.T) {
	// Unit-weight siblings: wdist = (1+1)/2 − 1 = 0.
	items := Mine(mkWeighted(t, 1, 1), DefaultOptions())
	if got := items[NewKey("x", "y", 0)]; got != 1 {
		t.Fatalf("items = %v", items.Items())
	}
	// Weights 2 and 2: wdist = 1 (longer branches = more distant kin).
	items = Mine(mkWeighted(t, 2, 2), DefaultOptions())
	if got := items[NewKey("x", "y", 1)]; got != 1 {
		t.Fatalf("items = %v", items.Items())
	}
	// Weights 1 and 2: gap 1 allowed, wdist = 0.5.
	items = Mine(mkWeighted(t, 1, 2), DefaultOptions())
	if got := items[NewKey("x", "y", 0.5)]; got != 1 {
		t.Fatalf("items = %v", items.Items())
	}
	// Weights 1 and 3: gap 2 exceeds maxgap 1 → undefined.
	items = Mine(mkWeighted(t, 1, 3), DefaultOptions())
	if len(items) != 0 {
		t.Fatalf("items = %v, want empty", items.Items())
	}
	// Raising maxgap admits the pair at wdist (1+3)/2−1 = 1.
	opts := Options{MaxDist: 2, MaxGap: 2, MinOccur: 1}
	items = Mine(mkWeighted(t, 1, 3), opts)
	if got := items[NewKey("x", "y", 1)]; got != 1 {
		t.Fatalf("items = %v", items.Items())
	}
}

func TestMineMaxDistFilter(t *testing.T) {
	items := Mine(mkWeighted(t, 3, 3), Options{MaxDist: 1.5, MaxGap: 1, MinOccur: 1})
	if len(items) != 0 {
		t.Fatalf("wdist 2 should be filtered at maxdist 1.5: %v", items.Items())
	}
}

// randLabeledTree mirrors the core test generator.
func randLabeledTree(rng *rand.Rand, n int) *tree.Tree {
	labels := []string{"a", "b", "c", "d"}
	b := tree.NewBuilder()
	b.Root(labels[rng.Intn(len(labels))])
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

func TestUnitWeightsReduceToPaperDefinition(t *testing.T) {
	// The central design property: with unit weights and maxgap 1 the
	// weighted miner reproduces internal/core's item set exactly.
	f := func(seed int64, size uint8, maxD uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%50 + 1
		tr := randLabeledTree(rng, n)
		halves := int(maxD % 8)
		unweighted := core.Mine(tr, core.Options{MaxDist: core.Dist(halves), MinOccur: 1})
		weighted := Mine(Unit(tr), Options{MaxDist: float64(halves) / 2, MaxGap: 1, MinOccur: 1})
		if len(unweighted) != len(weighted) {
			t.Logf("seed=%d n=%d: %d vs %d items", seed, n, len(unweighted), len(weighted))
			return false
		}
		for k, c := range unweighted {
			wk := NewKey(k.A, k.B, k.D.Float())
			if weighted[wk] != c {
				t.Logf("seed=%d: key %v count %d vs %d", seed, k, c, weighted[wk])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMineMinOccur(t *testing.T) {
	b := tree.NewBuilder()
	r := b.RootUnlabeled()
	b.Child(r, "x")
	b.Child(r, "x")
	b.Child(r, "y")
	tr := b.MustBuild()
	opts := DefaultOptions()
	opts.MinOccur = 2
	items := Mine(Unit(tr), opts)
	if len(items) != 1 || items[NewKey("x", "y", 0)] != 2 {
		t.Fatalf("items = %v", items.Items())
	}
}

func TestKeyStringAndItems(t *testing.T) {
	k := NewKey("b", "a", 0.5)
	if k.A != "a" || k.B != "b" {
		t.Fatalf("key not canonical: %+v", k)
	}
	if got := k.String(); got != "(a, b, 0.5)" {
		t.Fatalf("String = %q", got)
	}
	s := ItemSet{
		NewKey("x", "y", 1):   2,
		NewKey("a", "b", 0.5): 1,
		NewKey("a", "b", 0):   3,
	}
	items := s.Items()
	if len(items) != 3 {
		t.Fatalf("Items = %v", items)
	}
	if items[0].Key != NewKey("a", "b", 0) || items[1].Key != NewKey("a", "b", 0.5) ||
		items[2].Key != NewKey("x", "y", 1) {
		t.Fatalf("Items not sorted: %v", items)
	}
	if items[0].Occur != 3 {
		t.Fatalf("occur = %d", items[0].Occur)
	}
}

func TestFractionalWeights(t *testing.T) {
	// Branch lengths 0.5 and 0.7: wdist = 0.6−1 < 0 — kin closer than
	// siblings, still reported (distance is real-valued now).
	items := Mine(mkWeighted(t, 0.5, 0.7), Options{MaxDist: 2, MaxGap: 1, MinOccur: 1})
	if len(items) != 1 {
		t.Fatalf("items = %v", items.Items())
	}
	for k := range items {
		if math.Abs(k.D-(-0.4)) > 1e-12 {
			t.Fatalf("wdist = %v, want -0.4", k.D)
		}
	}
}
