package parsimony

import (
	"treemine/internal/tree"
)

// The SPR neighborhood enumeration lives in moves.go (SPRMoves /
// ApplySPR / SPRNeighbors); this file keeps the tree surgery itself.

func markSubtree(t *tree.Tree, root tree.NodeID) []bool {
	in := make([]bool, t.Size())
	stack := []tree.NodeID{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in[n] = true
		stack = append(stack, t.Children(n)...)
	}
	return in
}

// sprApply builds the tree where prune's subtree moves onto the edge
// (parent(target), target); `parent` is suppressed (sibling takes its
// place) and a fresh unlabeled node is inserted above target to hold the
// pruned subtree. Returns nil if the surgery would leave the tree
// malformed (defensive; cannot happen for valid inputs).
func sprApply(t *tree.Tree, prune, parent, sibling, target tree.NodeID) *tree.Tree {
	grand := t.Parent(parent)
	tp := t.Parent(target)

	// New parent assignments expressed over original node IDs, with one
	// extra virtual node (the regraft point).
	type assign struct{ node, parent tree.NodeID }
	virtual := tree.NodeID(t.Size()) // the new regraft node
	moves := []assign{
		{sibling, grand},  // sibling replaces parent (grand may be None: new root)
		{virtual, tp},     // regraft node subdivides (tp, target)
		{target, virtual}, // target hangs under the regraft node
		{prune, virtual},  // pruned subtree hangs under the regraft node
	}
	parentOf := make([]tree.NodeID, t.Size()+1)
	for i := 0; i < t.Size(); i++ {
		parentOf[i] = t.Parent(tree.NodeID(i))
	}
	parentOf[virtual] = tp
	skip := make([]bool, t.Size()+1)
	skip[parent] = true // suppressed
	for _, m := range moves {
		parentOf[m.node] = m.parent
	}

	kids := make([][]tree.NodeID, t.Size()+1)
	var root tree.NodeID = tree.None
	for i := 0; i <= t.Size(); i++ {
		n := tree.NodeID(i)
		if skip[n] {
			continue
		}
		p := parentOf[n]
		if p == tree.None {
			root = n
			continue
		}
		kids[p] = append(kids[p], n)
	}
	if root == tree.None {
		return nil
	}
	b := tree.NewBuilder()
	var emit func(old tree.NodeID, np tree.NodeID) bool
	count := 0
	emit = func(old, np tree.NodeID) bool {
		count++
		if count > t.Size()+1 {
			return false // cycle guard
		}
		var id tree.NodeID
		labeled := old != virtual && t.Labeled(old)
		switch {
		case labeled && np == tree.None:
			id = b.Root(t.MustLabel(old))
		case labeled:
			id = b.Child(np, t.MustLabel(old))
		case np == tree.None:
			id = b.RootUnlabeled()
		default:
			id = b.ChildUnlabeled(np)
		}
		for _, k := range kids[old] {
			if !emit(k, id) {
				return false
			}
		}
		return true
	}
	if !emit(root, tree.None) {
		return nil
	}
	nb := b.MustBuild()
	if nb.Size() != t.Size() {
		return nil
	}
	return nb
}
