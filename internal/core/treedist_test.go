package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"treemine/internal/tree"
)

var allVariants = []Variant{VariantLabel, VariantDist, VariantOccur, VariantDistOccur}

func TestVariantString(t *testing.T) {
	want := map[Variant]string{
		VariantLabel:     "tdist_label",
		VariantDist:      "tdist_dist",
		VariantOccur:     "tdist_occ",
		VariantDistOccur: "tdist_{occ,dist}",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), s)
		}
	}
	if Variant(99).String() != "Variant(99)" {
		t.Errorf("unknown variant String = %q", Variant(99).String())
	}
}

func TestTDistIdentity(t *testing.T) {
	tr := handTree(t)
	opts := Options{MaxDist: D(4), MinOccur: 1}
	for _, v := range allVariants {
		if got := TDist(tr, tr, v, opts); got != 0 {
			t.Errorf("%s(T,T) = %v, want 0", v, got)
		}
	}
}

func TestTDistDisjoint(t *testing.T) {
	mk := func(l1, l2 string) *tree.Tree {
		b := tree.NewBuilder()
		r := b.RootUnlabeled()
		b.Child(r, l1)
		b.Child(r, l2)
		return b.MustBuild()
	}
	t1, t2 := mk("a", "b"), mk("x", "y")
	for _, v := range allVariants {
		if got := TDist(t1, t2, v, DefaultOptions()); got != 1 {
			t.Errorf("%s(disjoint) = %v, want 1", v, got)
		}
	}
}

func TestTDistEmptyItemSets(t *testing.T) {
	b := tree.NewBuilder()
	b.Root("solo")
	t1 := b.MustBuild()
	for _, v := range allVariants {
		if got := TDist(t1, t1, v, DefaultOptions()); got != 0 {
			t.Errorf("%s(empty,empty) = %v, want 0", v, got)
		}
	}
}

func TestTDistWorkedExample(t *testing.T) {
	// Footnote-2 style worked case: cpi(T1) = {(a,b,0,1)}, cpi(T2) =
	// {(a,b,0,2), (a,c,0,1)} with occurrence counts.
	//   label view:      ∩ = {(a,b)},        ∪ = {(a,b),(a,c)}      → 1 − 1/2 = 0.5
	//   occ view:        ∩ = {(a,b)·1},      ∪ = {(a,b)·2,(a,c)·1}  → 1 − 1/3 = 2/3
	t1 := func() *tree.Tree {
		b := tree.NewBuilder()
		r := b.RootUnlabeled()
		b.Child(r, "a")
		b.Child(r, "b")
		return b.MustBuild()
	}()
	t2 := func() *tree.Tree {
		b := tree.NewBuilder()
		r := b.RootUnlabeled()
		b.Child(r, "a")
		b.Child(r, "b")
		b.Child(r, "b")
		x := b.ChildUnlabeled(r)
		b.Child(x, "a")
		b.Child(x, "c")
		return b.MustBuild()
	}()
	opts := Options{MaxDist: D(0), MinOccur: 1}
	// Check the premise first.
	i1, i2 := Mine(t1, opts), Mine(t2, opts)
	if i1[NewKey("a", "b", D(0))] != 1 || len(i1) != 1 {
		t.Fatalf("cpi(T1) = %v", i1.Items())
	}
	if i2[NewKey("a", "b", D(0))] != 2 || i2[NewKey("a", "c", D(0))] != 1 ||
		i2[NewKey("b", "b", D(0))] != 1 || len(i2) != 3 {
		t.Fatalf("cpi(T2) = %v", i2.Items())
	}
	// b–b sibling pair in T2 joins the union on every variant.
	// label: ∩=1, ∪=3 → 2/3; occ: ∩=1, ∪=4 → 3/4.
	if got := TDist(t1, t2, VariantLabel, opts); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("tdist_label = %v, want 2/3", got)
	}
	if got := TDist(t1, t2, VariantOccur, opts); math.Abs(got-3.0/4) > 1e-12 {
		t.Errorf("tdist_occ = %v, want 3/4", got)
	}
	if got := TDist(t1, t2, VariantDist, opts); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("tdist_dist = %v, want 2/3", got)
	}
	if got := TDist(t1, t2, VariantDistOccur, opts); math.Abs(got-3.0/4) > 1e-12 {
		t.Errorf("tdist_{occ,dist} = %v, want 3/4", got)
	}
}

func TestTDistVariantsDifferWhenDistancesDiffer(t *testing.T) {
	// Same label pair at different cousin distances: the label variant
	// sees identical trees, the distance variant does not.
	sib := func() *tree.Tree {
		b := tree.NewBuilder()
		r := b.RootUnlabeled()
		b.Child(r, "a")
		b.Child(r, "b")
		return b.MustBuild()
	}()
	cousins := func() *tree.Tree {
		b := tree.NewBuilder()
		r := b.RootUnlabeled()
		l := b.ChildUnlabeled(r)
		rr := b.ChildUnlabeled(r)
		b.Child(l, "a")
		b.Child(rr, "b")
		return b.MustBuild()
	}()
	opts := DefaultOptions()
	if got := TDist(sib, cousins, VariantLabel, opts); got != 0 {
		t.Errorf("tdist_label = %v, want 0 (same label pairs)", got)
	}
	if got := TDist(sib, cousins, VariantDist, opts); got != 1 {
		t.Errorf("tdist_dist = %v, want 1 (no shared (pair,dist))", got)
	}
}

func TestTDistProperties(t *testing.T) {
	f := func(seed int64, vi uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := randLabeledTree(rng, 30)
		t2 := randLabeledTree(rng, 30)
		v := allVariants[int(vi)%len(allVariants)]
		opts := DefaultOptions()
		d12 := TDist(t1, t2, v, opts)
		d21 := TDist(t2, t1, v, opts)
		d11 := TDist(t1, t1, v, opts)
		return d12 == d21 && d11 == 0 && d12 >= 0 && d12 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTDistIsomorphicTreesAtZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	t1 := randLabeledTree(rng, 40)
	t2 := t1.Clone()
	for _, v := range allVariants {
		if got := TDist(t1, t2, v, DefaultOptions()); got != 0 {
			t.Errorf("%s(clone) = %v, want 0", v, got)
		}
	}
}

// TestVariantViewPanicsOnUnknown: projecting a profile to a variant
// outside the four is a programming error, even on an empty profile.
func TestVariantViewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown variant")
		}
	}()
	NewProfileItems(ItemSet{}, Variant(42))
}
