package core

import (
	"treemine/internal/oracle"
	"treemine/internal/tree"
)

// The brute-force references of internal/oracle, in core's types: the
// all-pairs miner, naive forest support, and the map-based tree
// distance and σ every kernel must equal bit for bit.

// naiveSets mines each tree with the oracle's all-pairs miner.
func naiveSets(opts Options, trees ...*tree.Tree) []oracle.Items {
	return oracle.MineTrees(trees, int(opts.MaxDist), opts.MinOccur)
}

// naiveMine is the oracle's item set of t.
func naiveMine(t *tree.Tree, opts Options) ItemSet {
	out := ItemSet{}
	for k, n := range naiveSets(opts, t)[0] {
		out[Key{A: k.A, B: k.B, D: Dist(k.D)}] = n
	}
	return out
}

// naiveForest is the oracle's forest support over the trees.
func naiveForest(trees []*tree.Tree, opts ForestOptions) []FrequentPair {
	var out []FrequentPair
	for _, p := range oracle.Forest(naiveSets(opts.Options, trees...), opts.MinSup, opts.IgnoreDist) {
		out = append(out, FrequentPair{Key: Key{A: p.Key.A, B: p.Key.B, D: Dist(p.Key.D)}, Support: p.Support})
	}
	return out
}
