package tree

import (
	"errors"
	"fmt"
)

// ErrEmptyTree is returned by Builder.Build when no root was added.
var ErrEmptyTree = errors.New("tree: empty tree")

// Builder incrementally constructs a Tree. The first node added must be
// the root; every other node is attached to an existing parent. Builders
// are not safe for concurrent use. A Builder must not be reused after
// Build.
type Builder struct {
	t     Tree
	built bool
}

// NewBuilder returns a Builder with no nodes. An optional size hint
// presizes the node arrays for that many nodes; the tree may still grow
// past it.
func NewBuilder(sizeHint ...int) *Builder {
	b := &Builder{}
	if len(sizeHint) > 0 && sizeHint[0] > 0 {
		n := sizeHint[0]
		b.t.parent = make([]NodeID, 0, n)
		b.t.labels = make([]string, 0, n)
		b.t.labeled = make([]bool, 0, n)
		b.t.depth = make([]int, 0, n)
	}
	return b
}

// Root adds the root with the given label and returns its ID (always 0).
// It panics if a root was already added.
func (b *Builder) Root(label string) NodeID { return b.root(label, true) }

// RootUnlabeled adds an unlabeled root and returns its ID (always 0).
func (b *Builder) RootUnlabeled() NodeID { return b.root("", false) }

func (b *Builder) root(label string, labeled bool) NodeID {
	if b.t.Size() != 0 {
		panic("tree: Builder.Root called twice")
	}
	return b.add(None, label, labeled)
}

// Child adds a labeled child of parent and returns its ID. It panics if
// parent is not a node previously returned by this builder.
func (b *Builder) Child(parent NodeID, label string) NodeID {
	return b.add(parent, label, true)
}

// ChildUnlabeled adds an unlabeled child of parent and returns its ID.
func (b *Builder) ChildUnlabeled(parent NodeID) NodeID {
	return b.add(parent, "", false)
}

// Path adds a chain of labeled nodes under parent, one per label, each the
// child of the previous, and returns the ID of the last node added. With
// no labels it returns parent.
func (b *Builder) Path(parent NodeID, labels ...string) NodeID {
	for _, l := range labels {
		parent = b.Child(parent, l)
	}
	return parent
}

// SetLabel labels the already-added node n, replacing any label it had.
// It lets a parser create a node before its label has been read, as
// Newick does for internal nodes, whose label follows their children.
func (b *Builder) SetLabel(n NodeID, label string) {
	if b.built {
		panic("tree: Builder reused after Build")
	}
	b.t.labels[n] = label
	b.t.labeled[n] = true
}

// Size returns the number of nodes added so far.
func (b *Builder) Size() int { return b.t.Size() }

func (b *Builder) add(parent NodeID, label string, labeled bool) NodeID {
	if b.built {
		panic("tree: Builder reused after Build")
	}
	if parent == None && b.t.Size() != 0 {
		panic("tree: node without parent added to non-empty builder")
	}
	if parent != None && (parent < 0 || int(parent) >= b.t.Size()) {
		panic(fmt.Sprintf("tree: unknown parent node %d", parent))
	}
	id := NodeID(b.t.Size())
	b.t.parent = append(b.t.parent, parent)
	b.t.labels = append(b.t.labels, label)
	b.t.labeled = append(b.t.labeled, labeled)
	if parent == None {
		b.t.depth = append(b.t.depth, 0)
	} else {
		b.t.depth = append(b.t.depth, b.t.depth[parent]+1)
	}
	return id
}

// Build finalizes and returns the tree. It returns ErrEmptyTree if no
// nodes were added. After Build the builder must not be used again.
func (b *Builder) Build() (*Tree, error) {
	if b.t.Size() == 0 {
		return nil, ErrEmptyTree
	}
	b.built = true
	t := b.t
	t.children = layoutChildren(t.parent)
	return &t, nil
}

// layoutChildren derives every node's children list from the parent
// array, all in one backing array: a count pass, prefix sums, then a fill
// in ID order, so each list is in insertion order. Each list is capped at
// its own length, so an append by a caller reallocates instead of
// overwriting the next node's children. Leaves get nil.
func layoutChildren(parent []NodeID) [][]NodeID {
	n := len(parent)
	flat := make([]NodeID, n-1)
	children := make([][]NodeID, n)
	// Count: each list's length is its child count for now.
	for i := range children {
		children[i] = flat[:0]
	}
	for _, p := range parent[1:] {
		children[p] = children[p][:len(children[p])+1]
	}
	// Prefix sums: give each list its window of flat, empty for now.
	at := 0
	for i, kids := range children {
		end := at + len(kids)
		children[i] = flat[at:at:end]
		if at == end {
			children[i] = nil
		}
		at = end
	}
	// Fill in ID order; every append lands within its window.
	for id := 1; id < n; id++ {
		p := parent[id]
		children[p] = append(children[p], NodeID(id))
	}
	return children
}

// MustBuild is Build for static trees in tests and examples; it panics on
// error.
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
