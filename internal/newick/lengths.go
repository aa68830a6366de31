package newick

import "treemine/internal/tree"

// ParseWithLengths parses a Newick tree keeping its branch lengths: the
// returned slice has one entry per node (indexed by NodeID) holding the
// length of the edge to the node's parent. Edges without an explicit
// ":length" get defaultLen; the root's entry is always 0. Feed the
// result to internal/weighted for weighted cousin mining over real
// phylogeny branch lengths.
func ParseWithLengths(s string, defaultLen float64) (*tree.Tree, []float64, error) {
	p := newParser(s, true)
	p.def = defaultLen
	if err := p.parse(); err != nil {
		return nil, nil, err
	}
	t, err := p.b.Build()
	if err != nil {
		return nil, nil, err
	}
	return t, p.lengths, nil
}
