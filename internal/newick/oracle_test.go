package newick

// The staged recursive-descent parser that the one-pass parser replaced,
// kept verbatim apart from renaming as a differential oracle. It parses
// each internal group into heap-allocated staged nodes and replays them
// in preorder once the group's trailing label has been read. It builds
// into refBuilder, the builder as it was then (each child appended to
// its parent's list when added), so the oracle shares neither the
// grammar nor tree.Builder's flat children layout with the code under
// test.

import (
	"fmt"
	"strconv"
	"strings"

	"treemine/internal/tree"
)

// refTree is the oracle's tree: the tree.Tree fields, built the old way.
type refTree struct {
	parent   []tree.NodeID
	children [][]tree.NodeID
	labels   []string
	labeled  []bool
	depth    []int
}

type refBuilder struct{ t refTree }

func newRefBuilder() *refBuilder { return &refBuilder{} }

func (b *refBuilder) Root(label string) tree.NodeID { return b.add(tree.None, label, true) }
func (b *refBuilder) RootUnlabeled() tree.NodeID    { return b.add(tree.None, "", false) }
func (b *refBuilder) Child(parent tree.NodeID, label string) tree.NodeID {
	return b.add(parent, label, true)
}
func (b *refBuilder) ChildUnlabeled(parent tree.NodeID) tree.NodeID {
	return b.add(parent, "", false)
}

func (b *refBuilder) add(parent tree.NodeID, label string, labeled bool) tree.NodeID {
	id := tree.NodeID(len(b.t.parent))
	b.t.parent = append(b.t.parent, parent)
	b.t.children = append(b.t.children, nil)
	b.t.labels = append(b.t.labels, label)
	b.t.labeled = append(b.t.labeled, labeled)
	if parent == tree.None {
		b.t.depth = append(b.t.depth, 0)
	} else {
		b.t.children[parent] = append(b.t.children[parent], id)
		b.t.depth = append(b.t.depth, b.t.depth[parent]+1)
	}
	return id
}

func (b *refBuilder) Build() (*refTree, error) {
	if len(b.t.parent) == 0 {
		return nil, tree.ErrEmptyTree
	}
	return &b.t, nil
}

type oracleParser struct {
	s   string
	pos int
	b   *refBuilder
}

// oracleParse parses a single Newick tree from s. Input after the
// terminating semicolon (other than whitespace and comments) is an error.
func oracleParse(s string) (*refTree, error) {
	p := &oracleParser{s: s, b: newRefBuilder()}
	if err := p.parseTree(); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, p.errorf("trailing input after ';'")
	}
	return p.b.Build()
}

func (p *oracleParser) errorf(format string, args ...any) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *oracleParser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		case '[':
			depth := 0
			start := p.pos
			for ; p.pos < len(p.s); p.pos++ {
				if p.s[p.pos] == '[' {
					depth++
				} else if p.s[p.pos] == ']' {
					depth--
					if depth == 0 {
						break
					}
				}
			}
			if depth != 0 {
				p.pos = start
				return // unterminated comment surfaces as a later error
			}
			p.pos++
		default:
			return
		}
	}
}

func (p *oracleParser) peek() byte {
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func (p *oracleParser) parseTree() error {
	p.skipSpace()
	if err := p.parseSubtree(tree.None); err != nil {
		return err
	}
	p.skipSpace()
	if p.peek() != ';' {
		return p.errorf("expected ';', got %q", string(p.peek()))
	}
	p.pos++
	return nil
}

func (p *oracleParser) parseSubtree(parent tree.NodeID) error {
	p.skipSpace()
	if p.peek() == '(' {
		p.pos++
		// Internal node: create it first so children can attach, then
		// read its optional label afterwards. Since labels are stored on
		// nodes at creation, parse children into a temporary list? The
		// Builder assigns labels at creation, so instead we parse the
		// whole group into a staging structure.
		return p.parseInternal(parent)
	}
	label, labeled, err := p.parseLabel()
	if err != nil {
		return err
	}
	if err := p.parseLength(); err != nil {
		return err
	}
	p.addNode(parent, label, labeled)
	return nil
}

// oracleStaged is a parse-time node; the tree is rebuilt from oracleStaged nodes once
// each internal node's trailing label has been read.
type oracleStaged struct {
	label    string
	labeled  bool
	children []*oracleStaged
}

func (p *oracleParser) parseInternal(parent tree.NodeID) error {
	st, err := p.parseStagedGroup()
	if err != nil {
		return err
	}
	p.emit(st, parent)
	return nil
}

// parseStagedGroup parses "(...)label:len" with p.pos just past '('.
func (p *oracleParser) parseStagedGroup() (*oracleStaged, error) {
	node := &oracleStaged{}
	for {
		child, err := p.parseStagedSubtree()
		if err != nil {
			return nil, err
		}
		node.children = append(node.children, child)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case ')':
			p.pos++
			label, labeled, err := p.parseLabel()
			if err != nil {
				return nil, err
			}
			if err := p.parseLength(); err != nil {
				return nil, err
			}
			node.label, node.labeled = label, labeled
			return node, nil
		case 0:
			return nil, p.errorf("unexpected end of input inside '('")
		default:
			return nil, p.errorf("expected ',' or ')', got %q", string(p.peek()))
		}
	}
}

func (p *oracleParser) parseStagedSubtree() (*oracleStaged, error) {
	p.skipSpace()
	if p.peek() == '(' {
		p.pos++
		return p.parseStagedGroup()
	}
	label, labeled, err := p.parseLabel()
	if err != nil {
		return nil, err
	}
	if err := p.parseLength(); err != nil {
		return nil, err
	}
	return &oracleStaged{label: label, labeled: labeled}, nil
}

func (p *oracleParser) emit(st *oracleStaged, parent tree.NodeID) {
	id := p.addNode(parent, st.label, st.labeled)
	for _, c := range st.children {
		p.emit(c, id)
	}
}

func (p *oracleParser) addNode(parent tree.NodeID, label string, labeled bool) tree.NodeID {
	if parent == tree.None {
		if labeled {
			return p.b.Root(label)
		}
		return p.b.RootUnlabeled()
	}
	if labeled {
		return p.b.Child(parent, label)
	}
	return p.b.ChildUnlabeled(parent)
}

// parseLabel reads an optional label. It returns labeled=false when no
// label is present.
func (p *oracleParser) parseLabel() (string, bool, error) {
	p.skipSpace()
	if p.peek() == '\'' {
		p.pos++
		var b strings.Builder
		for {
			if p.pos >= len(p.s) {
				return "", false, p.errorf("unterminated quoted label")
			}
			c := p.s[p.pos]
			if c == '\'' {
				if p.pos+1 < len(p.s) && p.s[p.pos+1] == '\'' {
					b.WriteByte('\'')
					p.pos += 2
					continue
				}
				p.pos++
				return b.String(), true, nil
			}
			b.WriteByte(c)
			p.pos++
		}
	}
	start := p.pos
	for p.pos < len(p.s) && !oracleIsDelim(p.s[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", false, nil
	}
	return p.s[start:p.pos], true, nil
}

func oracleIsDelim(c byte) bool {
	switch c {
	case '(', ')', ',', ':', ';', '[', ']', '\'', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// parseLength reads an optional ":<number>" branch length, validating the
// number and discarding it.
func (p *oracleParser) parseLength() error {
	p.skipSpace()
	if p.peek() != ':' {
		return nil
	}
	p.pos++
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) && !oracleIsDelim(p.s[p.pos]) {
		p.pos++
	}
	if _, err := strconv.ParseFloat(p.s[start:p.pos], 64); err != nil {
		p.pos = start
		return p.errorf("invalid branch length %q", p.s[start:p.pos])
	}
	return nil
}

// oracleParseWithLengths parses a Newick tree keeping its branch lengths:
// the returned slice has one entry per node (indexed by NodeID) holding
// the length of the edge to the node's parent. Edges without an explicit
// ":length" get defaultLen; the root's entry is always 0.
func oracleParseWithLengths(s string, defaultLen float64) (*refTree, []float64, error) {
	p := &oracleLengthParser{oracleParser: oracleParser{s: s, b: newRefBuilder()}, def: defaultLen}
	if err := p.parseTree(); err != nil {
		return nil, nil, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, nil, p.errorf("trailing input after ';'")
	}
	t, err := p.b.Build()
	if err != nil {
		return nil, nil, err
	}
	return t, p.lengths, nil
}

// oracleLengthParser wraps oracleParser, re-running the grammar while
// capturing the per-node lengths. The grammar is small enough that a
// second specialized implementation stays clearer than threading an
// optional collector through the fast path.
type oracleLengthParser struct {
	oracleParser
	def     float64
	lengths []float64
}

func (p *oracleLengthParser) parseTree() error {
	p.skipSpace()
	if err := p.parseSubtree(tree.None); err != nil {
		return err
	}
	p.skipSpace()
	if p.peek() != ';' {
		return p.errorf("expected ';', got %q", string(p.peek()))
	}
	p.pos++
	return nil
}

type oracleStagedL struct {
	label    string
	labeled  bool
	length   float64
	children []*oracleStagedL
}

func (p *oracleLengthParser) parseSubtree(parent tree.NodeID) error {
	p.skipSpace()
	var st *oracleStagedL
	var err error
	if p.peek() == '(' {
		p.pos++
		st, err = p.parseGroup()
	} else {
		st, err = p.parseLeaf()
	}
	if err != nil {
		return err
	}
	p.emit(st, parent)
	return nil
}

func (p *oracleLengthParser) parseGroup() (*oracleStagedL, error) {
	node := &oracleStagedL{length: p.def}
	for {
		var child *oracleStagedL
		var err error
		p.skipSpace()
		if p.peek() == '(' {
			p.pos++
			child, err = p.parseGroup()
		} else {
			child, err = p.parseLeaf()
		}
		if err != nil {
			return nil, err
		}
		node.children = append(node.children, child)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case ')':
			p.pos++
			label, labeled, err := p.parseLabel()
			if err != nil {
				return nil, err
			}
			length, err := p.parseLengthValue()
			if err != nil {
				return nil, err
			}
			node.label, node.labeled, node.length = label, labeled, length
			return node, nil
		case 0:
			return nil, p.errorf("unexpected end of input inside '('")
		default:
			return nil, p.errorf("expected ',' or ')', got %q", string(p.peek()))
		}
	}
}

func (p *oracleLengthParser) parseLeaf() (*oracleStagedL, error) {
	label, labeled, err := p.parseLabel()
	if err != nil {
		return nil, err
	}
	length, err := p.parseLengthValue()
	if err != nil {
		return nil, err
	}
	return &oracleStagedL{label: label, labeled: labeled, length: length}, nil
}

// parseLengthValue reads an optional ":<number>", returning the default
// when absent.
func (p *oracleLengthParser) parseLengthValue() (float64, error) {
	p.skipSpace()
	if p.peek() != ':' {
		return p.def, nil
	}
	p.pos++
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) && !oracleIsDelim(p.s[p.pos]) {
		p.pos++
	}
	v, err := strconv.ParseFloat(p.s[start:p.pos], 64)
	if err != nil {
		p.pos = start
		return 0, p.errorf("invalid branch length %q", p.s[start:p.pos])
	}
	return v, nil
}

func (p *oracleLengthParser) emit(st *oracleStagedL, parent tree.NodeID) {
	id := p.addNode(parent, st.label, st.labeled)
	for int(id) >= len(p.lengths) {
		p.lengths = append(p.lengths, 0)
	}
	if parent == tree.None {
		p.lengths[id] = 0
	} else {
		p.lengths[id] = st.length
	}
	for _, c := range st.children {
		p.emit(c, id)
	}
}

// WriteWithLengths serializes t with the given per-node branch lengths
