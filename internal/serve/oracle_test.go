package serve

import (
	"treemine/internal/core"
	"treemine/internal/store"
)

// The library oracles the differential suites hold the server to,
// computed straight from an index's per-tree item sets: core.SupportOf
// for pair support, a count over the sets in core's shared order for
// frequent listings, and the sets themselves for core.TDistItems and
// core.SimItems.

// indexSets returns the index's per-tree item sets in index order.
func indexSets(ix *store.Index) []core.ItemSet {
	sets := make([]core.ItemSet, len(ix.Entries))
	for i, e := range ix.Entries {
		sets[i] = e.Items
	}
	return sets
}

// indexSupport counts the trees holding the pair at d (DistWild: at any
// distance).
func indexSupport(ix *store.Index, l1, l2 string, d core.Dist) int {
	return core.SupportOf(indexSets(ix), l1, l2, d)
}

// indexFrequent lists the keys held by at least minSup trees, sorted
// like core.MineForest's output.
func indexFrequent(ix *store.Index, minSup int) []core.FrequentPair {
	support := map[core.Key]int{}
	for _, e := range ix.Entries {
		for k := range e.Items {
			support[k]++
		}
	}
	var out []core.FrequentPair
	for k, n := range support {
		if n >= minSup {
			out = append(out, core.FrequentPair{Key: k, Support: n})
		}
	}
	core.SortFrequentPairs(out)
	return out
}
