package tree

import (
	"math/rand"
	"testing"
)

// TestBuildChildrenLayout: Build lays every children list out in one
// backing array, in insertion order, nil for leaves, and capped so an
// append to one list cannot overwrite the next.
func TestBuildChildrenLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60) + 1
		b := NewBuilder(rng.Intn(2 * n))
		b.Root("r")
		want := make([][]NodeID, n)
		for id := 1; id < n; id++ {
			p := NodeID(rng.Intn(id))
			b.ChildUnlabeled(p)
			want[p] = append(want[p], NodeID(id))
		}
		tr := b.MustBuild()
		for i := range want {
			got := tr.Children(NodeID(i))
			if len(got) != len(want[i]) || (len(got) == 0) != (got == nil) {
				t.Fatalf("trial %d node %d: children %v, want %v", trial, i, got, want[i])
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("trial %d node %d: children %v, want %v", trial, i, got, want[i])
				}
			}
			if cap(got) != len(got) {
				t.Fatalf("trial %d node %d: cap %d > len %d", trial, i, cap(got), len(got))
			}
		}
	}

	b := NewBuilder()
	r := b.Root("r")
	x := b.Child(r, "x")
	b.Child(r, "y")
	b.Child(x, "z")
	tr := b.MustBuild()
	_ = append(tr.Children(r), 99)
	if kids := tr.Children(x); len(kids) != 1 || kids[0] != 3 {
		t.Fatalf("append to root's children clobbered x's: %v", kids)
	}
}

// TestBuilderSetLabel: a node added unlabeled can be labeled later, as
// Newick internal nodes are.
func TestBuilderSetLabel(t *testing.T) {
	b := NewBuilder()
	r := b.RootUnlabeled()
	c := b.ChildUnlabeled(r)
	b.Child(c, "leaf")
	b.SetLabel(c, "inner")
	tr := b.MustBuild()
	if l, ok := tr.Label(c); !ok || l != "inner" {
		t.Fatalf("Label = %q,%v, want inner", l, ok)
	}
	if tr.Labeled(r) {
		t.Fatal("root became labeled")
	}
}
