package store

import "treemine/internal/core"

// The index query oracles: straight computations over the per-tree item
// sets that the v4 accessors answering every production query are
// checked against.

// ItemSets returns the per-tree item sets in index order.
func (ix *Index) ItemSets() []core.ItemSet {
	sets := make([]core.ItemSet, len(ix.Entries))
	for i, e := range ix.Entries {
		sets[i] = e.Items
	}
	return sets
}

// Support returns the number of indexed trees containing the label pair
// at distance d; DistWild counts trees containing the pair at any
// distance.
func (ix *Index) Support(l1, l2 string, d core.Dist) int {
	return core.SupportOf(ix.ItemSets(), l1, l2, d)
}

// Frequent returns the pairs with support ≥ minSup, sorted like
// core.MineForest's output.
func (ix *Index) Frequent(minSup int) []core.FrequentPair {
	support := map[core.Key]int{}
	for _, e := range ix.Entries {
		for k := range e.Items {
			support[k]++
		}
	}
	var out []core.FrequentPair
	for k, s := range support {
		if s >= minSup {
			out = append(out, core.FrequentPair{Key: k, Support: s})
		}
	}
	core.SortFrequentPairs(out)
	return out
}

// TreesWith returns the indices of the trees containing the key, in
// index order.
func (ix *Index) TreesWith(k core.Key) []int {
	var out []int
	for i, e := range ix.Entries {
		if _, ok := e.Items[k]; ok {
			out = append(out, i)
		}
	}
	return out
}
