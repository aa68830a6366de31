package newick

import (
	"strconv"
	"strings"

	"treemine/internal/tree"
)

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

// WriteWithLengths serializes t with the given per-node branch lengths
// (indexed by NodeID; the root's entry is ignored), producing input that
// ParseWithLengths round-trips.
func WriteWithLengths(t *tree.Tree, lengths []float64) string {
	var b strings.Builder
	writeNodeL(t, t.Root(), lengths, &b)
	b.WriteByte(';')
	return b.String()
}

func writeNodeL(t *tree.Tree, n tree.NodeID, lengths []float64, b *strings.Builder) {
	if kids := t.Children(n); len(kids) > 0 {
		b.WriteByte('(')
		for i, k := range kids {
			if i > 0 {
				b.WriteByte(',')
			}
			writeNodeL(t, k, lengths, b)
		}
		b.WriteByte(')')
	}
	if l, ok := t.Label(n); ok {
		writeLabel(l, b)
	}
	if t.Parent(n) != tree.None {
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(lengths[n], 'g', -1, 64))
	}
}
