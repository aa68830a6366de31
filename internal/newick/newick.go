// Package newick parses and serializes phylogenetic trees in the Newick
// format, the interchange format used by TreeBASE, PHYLIP and virtually
// every phylogenetics tool.
//
// The grammar accepted is the standard one:
//
//	tree    ::= subtree ";"
//	subtree ::= leaf | "(" subtree ("," subtree)* ")" [label] [":" length]
//	leaf    ::= [label] [":" length]
//	label   ::= unquoted | "'" quoted "'"
//
// Comments in square brackets and all whitespace between tokens are
// skipped. Quoted labels may contain any character, with a doubled quote
// standing for a single one. Parse validates branch lengths as numbers
// and then discards them, since the cousin-pair algorithms of the paper
// operate on tree topology and labels only; ParseWithLengths keeps them.
package newick

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"treemine/internal/tree"
)

// ErrSyntax is wrapped by all parse errors; use errors.Is to detect them.
var ErrSyntax = errors.New("newick: syntax error")

// ParseError describes a syntax error at a byte offset of the input.
type ParseError struct {
	Offset int    // byte offset where the error was detected
	Msg    string // human-readable description
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("newick: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Unwrap makes errors.Is(err, ErrSyntax) succeed for ParseErrors.
func (e *ParseError) Unwrap() error { return ErrSyntax }

type parser struct {
	s   string
	pos int
	b   *tree.Builder
	// lengths, when non-nil, collects each node's branch length by
	// NodeID (ParseWithLengths); def fills edges without ":length".
	lengths []float64
	def     float64
}

func newParser(s string, keepLengths bool) parser {
	// Every node but the root follows a '(' or a ',', so this bounds the
	// node count (quoted and commented bytes only overestimate it).
	n := strings.Count(s, ",") + strings.Count(s, "(") + 1
	p := parser{s: s, b: tree.NewBuilder(n)}
	if keepLengths {
		p.lengths = make([]float64, 0, n)
	}
	return p
}

// Parse parses a single Newick tree from s. Input after the terminating
// semicolon (other than whitespace and comments) is an error.
func Parse(s string) (*tree.Tree, error) {
	p := newParser(s, false)
	if err := p.parse(); err != nil {
		return nil, err
	}
	return p.b.Build()
}

// ParseAll parses a sequence of Newick trees from r, one per terminating
// semicolon. Trees may span or share lines. It returns the trees parsed
// before the first error, along with that error (nil on clean EOF).
// ParseAll is the materializing convenience over Scanner — use Scanner
// directly to mine streams that should not live in memory at once.
func ParseAll(r io.Reader) ([]*tree.Tree, error) {
	sc := NewScanner(r)
	var trees []*tree.Tree
	for {
		t, err := sc.Next()
		if err == io.EOF {
			return trees, nil
		}
		if err != nil {
			return trees, err
		}
		trees = append(trees, t)
	}
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
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

func (p *parser) peek() byte {
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

// parse reads one "subtree ;" and checks that nothing but whitespace and
// comments follows it.
func (p *parser) parse() error {
	if err := p.parseTree(); err != nil {
		return err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return p.errorf("trailing input after ';'")
	}
	return nil
}

// parseTree reads "subtree ;" in one left-to-right pass, adding nodes to
// the builder as they are met: an internal node at its '(', a leaf at its
// label. That is preorder, so node IDs, sibling order and depths come out
// as a recursive descent would give them. open holds the internal nodes
// whose ')' is still to come; an internal node's label and length follow
// its ')' and are filled in then.
func (p *parser) parseTree() error {
	open := make([]tree.NodeID, 0, 32) // stays on the stack unless the tree is deeper
	for {
		// A subtree starts here, under the innermost open node.
		p.skipSpace()
		parent := tree.None
		if len(open) > 0 {
			parent = open[len(open)-1]
		}
		if p.peek() == '(' {
			p.pos++
			open = append(open, p.addNode(parent, "", false))
			continue
		}
		label, labeled, length, err := p.parseTail()
		if err != nil {
			return err
		}
		p.setLength(p.addNode(parent, label, labeled), length)

		// The subtree just read is complete: close groups until a ','
		// starts a sibling or the root ends.
		for next := false; !next; {
			p.skipSpace()
			if len(open) == 0 {
				if p.peek() != ';' {
					return p.errorf("expected ';', got %q", string(p.peek()))
				}
				p.pos++
				return nil
			}
			switch p.peek() {
			case ',':
				p.pos++
				next = true
			case ')':
				p.pos++
				n := open[len(open)-1]
				open = open[:len(open)-1]
				label, labeled, length, err := p.parseTail()
				if err != nil {
					return err
				}
				if labeled {
					p.b.SetLabel(n, label)
				}
				p.setLength(n, length)
			case 0:
				return p.errorf("unexpected end of input inside '('")
			default:
				return p.errorf("expected ',' or ')', got %q", string(p.peek()))
			}
		}
	}
}

func (p *parser) addNode(parent tree.NodeID, label string, labeled bool) tree.NodeID {
	var id tree.NodeID
	switch {
	case parent == tree.None && labeled:
		id = p.b.Root(label)
	case parent == tree.None:
		id = p.b.RootUnlabeled()
	case labeled:
		id = p.b.Child(parent, label)
	default:
		id = p.b.ChildUnlabeled(parent)
	}
	if p.lengths != nil {
		p.lengths = append(p.lengths, 0)
	}
	return id
}

// setLength records n's branch length when lengths are kept. The root
// has no parent edge: its length is parsed and validated but stays 0.
func (p *parser) setLength(n tree.NodeID, length float64) {
	if p.lengths != nil && n != 0 {
		p.lengths[n] = length
	}
}

// parseTail reads the optional label and ":length" that end a subtree.
func (p *parser) parseTail() (label string, labeled bool, length float64, err error) {
	if label, labeled, err = p.parseLabel(); err != nil {
		return "", false, 0, err
	}
	length, err = p.parseLength()
	return label, labeled, length, err
}

// parseLabel reads an optional label. It returns labeled=false when no
// label is present. A quoted label without an escaped (doubled) quote is
// returned as a substring of the input; only escaped labels are copied.
func (p *parser) parseLabel() (string, bool, error) {
	p.skipSpace()
	if p.peek() == '\'' {
		p.pos++
		start := p.pos
		var b strings.Builder // used only once an escaped quote is seen
		for {
			i := strings.IndexByte(p.s[p.pos:], '\'')
			if i < 0 {
				p.pos = len(p.s)
				return "", false, p.errorf("unterminated quoted label")
			}
			p.pos += i
			if p.pos+1 < len(p.s) && p.s[p.pos+1] == '\'' {
				b.WriteString(p.s[start : p.pos+1])
				p.pos += 2
				start = p.pos
				continue
			}
			label := p.s[start:p.pos]
			p.pos++
			if b.Len() > 0 {
				b.WriteString(label)
				label = b.String()
			}
			return label, true, nil
		}
	}
	start := p.pos
	p.pos = p.tokenEnd()
	if p.pos == start {
		return "", false, nil
	}
	return p.s[start:p.pos], true, nil
}

func isDelim(c byte) bool {
	switch c {
	case '(', ')', ',', ':', ';', '[', ']', '\'', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// tokenEnd returns the offset of the first delimiter at or after p.pos,
// the end of an unquoted label or branch length.
func (p *parser) tokenEnd() int {
	s, i := p.s, p.pos
	for i < len(s) && !isDelim(s[i]) {
		i++
	}
	return i
}

// parseLength reads an optional ":<number>" branch length and returns
// it, or p.def when there is none.
func (p *parser) parseLength() (float64, error) {
	p.skipSpace()
	if p.peek() != ':' {
		return p.def, nil
	}
	p.pos++
	p.skipSpace()
	start := p.pos
	p.pos = p.tokenEnd()
	v, err := strconv.ParseFloat(p.s[start:p.pos], 64)
	if err != nil {
		p.pos = start
		return 0, p.errorf("invalid branch length %q", p.s[start:p.pos])
	}
	return v, nil
}

// Write serializes t as a Newick string terminated by ';'. Labels
// containing delimiter characters are quoted; sibling order follows node
// IDs, so Parse(Write(t)) is isomorphic to t.
func Write(t *tree.Tree) string {
	var b strings.Builder
	writeNode(t, t.Root(), &b)
	b.WriteByte(';')
	return b.String()
}

func writeNode(t *tree.Tree, n tree.NodeID, b *strings.Builder) {
	if kids := t.Children(n); len(kids) > 0 {
		b.WriteByte('(')
		for i, k := range kids {
			if i > 0 {
				b.WriteByte(',')
			}
			writeNode(t, k, b)
		}
		b.WriteByte(')')
	}
	if l, ok := t.Label(n); ok {
		writeLabel(l, b)
	}
}

func writeLabel(l string, b *strings.Builder) {
	if l != "" && !strings.ContainsAny(l, "()[]',;: \t\n\r") {
		b.WriteString(l)
		return
	}
	b.WriteByte('\'')
	b.WriteString(strings.ReplaceAll(l, "'", "''"))
	b.WriteByte('\'')
}
