package core

import (
	"treemine/internal/lca"
	"treemine/internal/tree"
)

// NaiveMine computes the same ItemSet as Mine by brute force: it examines
// every unordered pair of labeled nodes, computes their LCA with an LCA
// index, derives the cousin distance from the two depths, and filters.
// It is Θ(n²) regardless of output size and exists as the correctness
// oracle for Mine/MineCounts (the paper's §7 contrasts this "take random
// pairs and see what kind of cousins they are" approach with the guided
// enumeration the miner uses) and as the baseline in the ablation
// benchmarks.
func NaiveMine(t *tree.Tree, opts Options) ItemSet {
	items := make(ItemSet)
	nodes := t.LabeledNodes()
	if len(nodes) < 2 {
		return items
	}
	idx := lca.New(t)
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			u, v := nodes[i], nodes[j]
			a := idx.LCA(u, v)
			if a == u || a == v {
				continue // one is an ancestor of the other
			}
			hu := t.Depth(u) - t.Depth(a)
			hv := t.Depth(v) - t.Depth(a)
			d, ok := DistOf(hu, hv)
			if !ok || d > opts.MaxDist {
				continue
			}
			items[NewKey(t.MustLabel(u), t.MustLabel(v), d)]++
		}
	}
	return items.FilterMinOccur(opts.MinOccur)
}
