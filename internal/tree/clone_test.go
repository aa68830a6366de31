package tree_test

import (
	"math/rand"
	"reflect"
	"testing"

	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// TestCloneFlatChildren: a clone equals its source deeply, and its
// children lists, though they share one backing array, are capped, so
// appending to one never overwrites a sibling's.
func TestCloneFlatChildren(t *testing.T) {
	src := treegen.Fanout(rand.New(rand.NewSource(3)), treegen.DefaultParams())
	c := src.Clone()
	if !reflect.DeepEqual(c, src) {
		t.Fatal("clone differs from its source")
	}
	var internal []tree.NodeID
	for _, n := range c.Nodes() {
		if !c.IsLeaf(n) {
			internal = append(internal, n)
		}
	}
	if len(internal) < 2 {
		t.Fatalf("fixture has %d internal nodes, want several", len(internal))
	}
	for i := 0; i+1 < len(internal); i++ {
		a, b := internal[i], internal[i+1]
		next := append([]tree.NodeID(nil), c.Children(b)...)
		_ = append(c.Children(a), tree.NodeID(-7))
		if !reflect.DeepEqual(c.Children(b), next) {
			t.Fatalf("appending to node %d's children overwrote node %d's: %v, was %v", a, b, c.Children(b), next)
		}
	}
	if !reflect.DeepEqual(c, src) {
		t.Fatal("appends to the clone's child lists changed a list")
	}
}

// TestCloneAllocs: a clone allocates a fixed number of slices, not one
// per internal node.
func TestCloneAllocs(t *testing.T) {
	src := treegen.Fanout(rand.New(rand.NewSource(3)), treegen.DefaultParams())
	if src.Size() != 200 {
		t.Fatalf("fixture has %d nodes, want 200", src.Size())
	}
	if allocs := testing.AllocsPerRun(20, func() { src.Clone() }); allocs > 8 {
		t.Fatalf("Clone of a 200-node tree: %.0f allocs, want at most 8", allocs)
	}
}
