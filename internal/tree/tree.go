// Package tree implements rooted unordered labeled trees, the data model
// underlying the cousin-pair mining algorithms of Shasha, Wang & Zhang
// (ICDE 2004) and all of their phylogenetic applications.
//
// A tree is a set of nodes identified by dense integer IDs. Each node may
// carry a label (in phylogenies, usually only the leaves do); the
// left-to-right order among siblings carries no meaning. Trees are
// immutable once built: construct them with a Builder, the newick package,
// or one of the generators in internal/treegen.
package tree

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within a single Tree. IDs are dense: a tree of
// n nodes uses IDs 0..n-1, with the root always at ID 0. IDs are not
// comparable across trees.
type NodeID int

// None is the sentinel returned where no node applies (e.g. the parent of
// the root).
const None NodeID = -1

// Tree is an immutable rooted unordered labeled tree.
//
// The zero value is an empty tree with no nodes; use a Builder to create
// non-empty trees.
type Tree struct {
	parent   []NodeID
	children [][]NodeID
	labels   []string
	labeled  []bool
	depth    []int
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int { return len(t.parent) }

// Root returns the root node, or None for an empty tree.
func (t *Tree) Root() NodeID {
	if t.Size() == 0 {
		return None
	}
	return 0
}

// Parent returns the parent of n, or None if n is the root.
func (t *Tree) Parent(n NodeID) NodeID { return t.parent[n] }

// Children returns the children of n. The returned slice is owned by the
// tree and must not be modified.
func (t *Tree) Children(n NodeID) []NodeID { return t.children[n] }

// NumChildren returns the number of children of n.
func (t *Tree) NumChildren(n NodeID) int { return len(t.children[n]) }

// IsLeaf reports whether n has no children.
func (t *Tree) IsLeaf(n NodeID) bool { return len(t.children[n]) == 0 }

// Label returns the label of n and whether n is labeled. Unlabeled nodes
// (common for internal nodes of phylogenies) return ("", false).
func (t *Tree) Label(n NodeID) (string, bool) {
	if !t.labeled[n] {
		return "", false
	}
	return t.labels[n], true
}

// MustLabel returns the label of n, or the empty string if n is unlabeled.
func (t *Tree) MustLabel(n NodeID) string { return t.labels[n] }

// Labeled reports whether n carries a label.
func (t *Tree) Labeled(n NodeID) bool { return t.labeled[n] }

// Depth returns the number of edges on the path from the root to n; the
// root has depth 0.
func (t *Tree) Depth(n NodeID) int { return t.depth[n] }

// Height returns the number of edges on the longest root-to-leaf path.
// An empty tree has height -1; a single node has height 0.
func (t *Tree) Height() int {
	h := -1
	for _, d := range t.depth {
		if d > h {
			h = d
		}
	}
	return h
}

// Nodes returns all node IDs in preorder (root first). The result is a
// fresh slice the caller may modify.
func (t *Tree) Nodes() []NodeID {
	out := make([]NodeID, 0, t.Size())
	t.Walk(func(n NodeID) bool {
		out = append(out, n)
		return true
	})
	return out
}

// Walk visits nodes in preorder, calling visit for each. If visit returns
// false the subtree below that node is skipped (the walk continues with
// siblings).
func (t *Tree) Walk(visit func(NodeID) bool) {
	if t.Size() == 0 {
		return
	}
	stack := []NodeID{0}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !visit(n) {
			continue
		}
		kids := t.children[n]
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
}

// PostOrder visits nodes in postorder (children before parents).
func (t *Tree) PostOrder(visit func(NodeID)) {
	var rec func(NodeID)
	rec = func(n NodeID) {
		for _, c := range t.children[n] {
			rec(c)
		}
		visit(n)
	}
	if t.Size() > 0 {
		rec(0)
	}
}

// Leaves returns the IDs of all leaves in preorder.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	t.Walk(func(n NodeID) bool {
		if t.IsLeaf(n) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// LeafLabels returns the labels of all labeled leaves, sorted and
// deduplicated.
func (t *Tree) LeafLabels() []string {
	seen := make(map[string]bool)
	for _, n := range t.Leaves() {
		if l, ok := t.Label(n); ok {
			seen[l] = true
		}
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// LabeledNodes returns the IDs of all labeled nodes in preorder.
func (t *Tree) LabeledNodes() []NodeID {
	var out []NodeID
	t.Walk(func(n NodeID) bool {
		if t.labeled[n] {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Ancestors returns the proper ancestors of n ordered from parent to root.
func (t *Tree) Ancestors(n NodeID) []NodeID {
	var out []NodeID
	for p := t.parent[n]; p != None; p = t.parent[p] {
		out = append(out, p)
	}
	return out
}

// IsAncestor reports whether a is a proper ancestor of n.
func (t *Tree) IsAncestor(a, n NodeID) bool {
	if t.depth[a] >= t.depth[n] {
		return false
	}
	for p := t.parent[n]; p != None && t.depth[p] >= t.depth[a]; p = t.parent[p] {
		if p == a {
			return true
		}
	}
	return false
}

// AncestorAt returns the ancestor of n that is exactly up edges above n,
// or None when n is fewer than up edges below the root. AncestorAt(n, 0)
// is n itself.
func (t *Tree) AncestorAt(n NodeID, up int) NodeID {
	for ; up > 0 && n != None; up-- {
		n = t.parent[n]
	}
	return n
}

// LCA returns the least common ancestor of u and v by walking parent
// pointers; O(depth). For bulk queries use internal/lca, which answers in
// O(1) after preprocessing.
func (t *Tree) LCA(u, v NodeID) NodeID {
	for t.depth[u] > t.depth[v] {
		u = t.parent[u]
	}
	for t.depth[v] > t.depth[u] {
		v = t.parent[v]
	}
	for u != v {
		u = t.parent[u]
		v = t.parent[v]
	}
	return u
}

// Clone returns a deep copy of the tree. The children lists share one
// backing array, laid out as Builder.Build lays them: each list capped
// at its own length (so an append reallocates rather than overwriting a
// sibling's), nil for leaves.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		parent:   append([]NodeID(nil), t.parent...),
		children: make([][]NodeID, len(t.children)),
		labels:   append([]string(nil), t.labels...),
		labeled:  append([]bool(nil), t.labeled...),
		depth:    append([]int(nil), t.depth...),
	}
	total := 0
	for _, kids := range t.children {
		total += len(kids)
	}
	flat := make([]NodeID, 0, total)
	for i, kids := range t.children {
		if len(kids) > 0 {
			at := len(flat)
			flat = append(flat, kids...)
			c.children[i] = flat[at:len(flat):len(flat)]
		}
	}
	return c
}

// String renders the tree in a compact nested form, with children sorted
// by canonical encoding so that isomorphic trees print identically. It is
// intended for debugging and test output, not serialization; use the
// newick package for interchange.
func (t *Tree) String() string {
	if t.Size() == 0 {
		return "()"
	}
	var b strings.Builder
	var rec func(NodeID)
	rec = func(n NodeID) {
		if t.labeled[n] {
			fmt.Fprintf(&b, "%q", t.labels[n])
		} else {
			b.WriteByte('.')
		}
		if len(t.children[n]) == 0 {
			return
		}
		kids := append([]NodeID(nil), t.children[n]...)
		enc := make(map[NodeID]string, len(kids))
		for _, k := range kids {
			enc[k] = t.canonicalEncoding(k)
		}
		sort.Slice(kids, func(i, j int) bool { return enc[kids[i]] < enc[kids[j]] })
		b.WriteByte('(')
		for i, k := range kids {
			if i > 0 {
				b.WriteByte(' ')
			}
			rec(k)
		}
		b.WriteByte(')')
	}
	rec(0)
	return b.String()
}
