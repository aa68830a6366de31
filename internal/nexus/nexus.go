// Package nexus reads and writes the NEXUS file format (Maddison,
// Swofford & Maddison 1997) — the format TreeBASE serves its phylogenies
// in and PHYLIP-era tools exchange. The supported subset covers what the
// mining pipeline needs: the TAXA block (taxon labels), the TREES block
// with optional TRANSLATE tables, and rooted/unrooted markers on TREE
// statements. Unknown blocks and commands are skipped, matching how
// phylogenetics tools treat NEXUS extensibility.
package nexus

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"treemine/internal/newick"
	"treemine/internal/tree"
)

// ErrSyntax is wrapped by all NEXUS parse errors.
var ErrSyntax = errors.New("nexus: syntax error")

// TreeEntry is one TREE statement: a named, possibly explicitly rooted
// phylogeny.
type TreeEntry struct {
	Name   string
	Rooted bool // true unless the tree carried the [&U] unrooted marker
	Tree   *tree.Tree
}

// File is the parsed content of a NEXUS file.
type File struct {
	Taxa  []string
	Trees []TreeEntry
}

// Parse reads a NEXUS file. It returns an error when the #NEXUS header
// is missing, a block is left open, or a TREE statement does not parse.
func Parse(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("nexus: read: %w", err)
	}
	p := &parser{toks: tokenize(string(data))}
	if !p.acceptWord("#NEXUS") {
		return nil, fmt.Errorf("%w: missing #NEXUS header", ErrSyntax)
	}
	f := &File{}
	for !p.done() {
		if !p.acceptWord("BEGIN") {
			return nil, fmt.Errorf("%w: expected BEGIN, got %q", ErrSyntax, p.peek())
		}
		block := strings.ToUpper(p.next())
		if !p.acceptWord(";") {
			return nil, fmt.Errorf("%w: expected ';' after BEGIN %s", ErrSyntax, block)
		}
		switch block {
		case "TAXA":
			if err := p.parseTaxa(f); err != nil {
				return nil, err
			}
		case "TREES":
			if err := p.parseTrees(f); err != nil {
				return nil, err
			}
		default:
			if err := p.skipBlock(block); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// tokenize splits NEXUS input into punctuation and word tokens. Comments
// in square brackets vanish except command-level comments like [&R],
// which the grammar treats as markers; those are preserved as tokens.
// Quoted words keep their content with each doubled quote unescaped;
// unquoted words get the NEXUS underscore-to-space rule applied.
func tokenize(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '[':
			depth := 0
			start := i
			for i < len(s) {
				if s[i] == '[' {
					depth++
				} else if s[i] == ']' {
					depth--
					if depth == 0 {
						break
					}
				}
				i++
			}
			if i < len(s) {
				i++
			}
			// Preserve rooting markers; drop ordinary comments.
			body := s[start:min(i, len(s))]
			if strings.HasPrefix(body, "[&") {
				toks = append(toks, body)
			}
		case c == '\'':
			i++
			var b strings.Builder
			for i < len(s) {
				if s[i] == '\'' {
					if i+1 < len(s) && s[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(s[i])
				i++
			}
			toks = append(toks, "'"+b.String())
		case c == ';' || c == ',' || c == '=' || c == '(' || c == ')' || c == ':':
			toks = append(toks, string(c))
			i++
		default:
			start := i
			for i < len(s) && !strings.ContainsRune(" \t\n\r[]';,=():", rune(s[i])) {
				i++
			}
			toks = append(toks, s[start:i])
		}
	}
	return toks
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.done() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) next() string {
	t := p.peek()
	if !p.done() {
		p.pos++
	}
	return t
}

// acceptWord consumes the next token when it case-insensitively matches.
func (p *parser) acceptWord(w string) bool {
	if strings.EqualFold(p.peek(), w) {
		p.pos++
		return true
	}
	return false
}

// word returns the label value of a token: quoted tokens drop the quote
// prefix; unquoted tokens get underscores replaced by spaces (the NEXUS
// convention).
func word(tok string) string {
	if strings.HasPrefix(tok, "'") {
		return tok[1:]
	}
	return strings.ReplaceAll(tok, "_", " ")
}

func (p *parser) parseTaxa(f *File) error {
	for !p.done() {
		switch {
		case p.acceptWord("END") || p.acceptWord("ENDBLOCK"):
			if !p.acceptWord(";") {
				return fmt.Errorf("%w: expected ';' after END", ErrSyntax)
			}
			return nil
		case p.acceptWord("TAXLABELS"):
			for !p.done() && p.peek() != ";" {
				f.Taxa = append(f.Taxa, word(p.next()))
			}
			if !p.acceptWord(";") {
				return fmt.Errorf("%w: unterminated TAXLABELS", ErrSyntax)
			}
		default:
			if err := p.skipCommand(); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("%w: unterminated TAXA block", ErrSyntax)
}

func (p *parser) parseTrees(f *File) error {
	translate := map[string]string{}
	for !p.done() {
		switch {
		case p.acceptWord("END") || p.acceptWord("ENDBLOCK"):
			if !p.acceptWord(";") {
				return fmt.Errorf("%w: expected ';' after END", ErrSyntax)
			}
			return nil
		case p.acceptWord("TRANSLATE"):
			for {
				key := p.next()
				if key == ";" || key == "" {
					break
				}
				val := p.next()
				if val == "" {
					return fmt.Errorf("%w: truncated TRANSLATE", ErrSyntax)
				}
				translate[word(key)] = word(val)
				if p.peek() == "," {
					p.next()
					continue
				}
				if p.acceptWord(";") {
					break
				}
			}
		case p.acceptWord("TREE") || p.acceptWord("UTREE"):
			entry, err := p.parseTree(translate)
			if err != nil {
				return err
			}
			f.Trees = append(f.Trees, entry)
		default:
			if err := p.skipCommand(); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("%w: unterminated TREES block", ErrSyntax)
}

func (p *parser) parseTree(translate map[string]string) (TreeEntry, error) {
	entry := TreeEntry{Rooted: true}
	entry.Name = word(p.next())
	if !p.acceptWord("=") {
		return entry, fmt.Errorf("%w: expected '=' in TREE %s", ErrSyntax, entry.Name)
	}
	if strings.HasPrefix(p.peek(), "[&") {
		if strings.EqualFold(p.peek(), "[&U]") {
			entry.Rooted = false
		}
		p.next()
	}
	// Re-assemble the Newick text from tokens up to the ';'.
	var b strings.Builder
	for !p.done() && p.peek() != ";" {
		tok := p.next()
		if strings.HasPrefix(tok, "'") {
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(tok[1:], "'", "''"))
			b.WriteByte('\'')
		} else {
			b.WriteString(tok)
		}
	}
	if !p.acceptWord(";") {
		return entry, fmt.Errorf("%w: unterminated TREE %s", ErrSyntax, entry.Name)
	}
	b.WriteByte(';')
	t, err := newick.Parse(b.String())
	if err != nil {
		return entry, fmt.Errorf("nexus: TREE %s: %w", entry.Name, err)
	}
	// Apply the translate table and the underscore rule to labels.
	entry.Tree = tree.Relabel(t, func(l string) string {
		if to, ok := translate[l]; ok {
			return to
		}
		return strings.ReplaceAll(l, "_", " ")
	})
	return entry, nil
}

// skipCommand consumes tokens through the next ';'.
func (p *parser) skipCommand() error {
	for !p.done() {
		if p.next() == ";" {
			return nil
		}
	}
	return fmt.Errorf("%w: unterminated command", ErrSyntax)
}

// skipBlock consumes tokens through "END ;".
func (p *parser) skipBlock(name string) error {
	for !p.done() {
		if p.acceptWord("END") || p.acceptWord("ENDBLOCK") {
			if !p.acceptWord(";") {
				return fmt.Errorf("%w: expected ';' after END %s", ErrSyntax, name)
			}
			return nil
		}
		p.next()
	}
	return fmt.Errorf("%w: unterminated block %s", ErrSyntax, name)
}

// Write serializes a File as NEXUS: a TAXA block (from f.Taxa, or the
// union of leaf labels when f.Taxa is empty) and a TREES block with a
// TRANSLATE table numbering the taxa.
func Write(w io.Writer, f *File) error {
	taxa := f.Taxa
	if len(taxa) == 0 {
		seen := map[string]bool{}
		for _, e := range f.Trees {
			for _, l := range e.Tree.LeafLabels() {
				seen[l] = true
			}
		}
		for l := range seen {
			taxa = append(taxa, l)
		}
		sort.Strings(taxa)
	}
	var b strings.Builder
	b.WriteString("#NEXUS\n\nBEGIN TAXA;\n")
	fmt.Fprintf(&b, "\tDIMENSIONS NTAX=%d;\n\tTAXLABELS", len(taxa))
	for _, t := range taxa {
		b.WriteString(" ")
		b.WriteString(quoteNexus(t))
	}
	b.WriteString(";\nEND;\n\nBEGIN TREES;\n")
	index := make(map[string]int, len(taxa))
	if len(taxa) > 0 {
		b.WriteString("\tTRANSLATE\n")
		for i, t := range taxa {
			index[t] = i + 1
			sep := ","
			if i == len(taxa)-1 {
				sep = ";"
			}
			fmt.Fprintf(&b, "\t\t%d %s%s\n", i+1, quoteNexus(t), sep)
		}
	}
	for i, e := range f.Trees {
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("tree_%d", i+1)
		}
		marker := "[&R]"
		if !e.Rooted {
			marker = "[&U]"
		}
		numbered := tree.Relabel(e.Tree, func(l string) string {
			if n, ok := index[l]; ok {
				return fmt.Sprint(n)
			}
			return l
		})
		fmt.Fprintf(&b, "\tTREE %s = %s %s\n", quoteNexus(name), marker, newick.Write(numbered))
	}
	b.WriteString("END;\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// quoteNexus renders a NEXUS word: plain when safe, quoted otherwise.
func quoteNexus(s string) string {
	if s != "" && !strings.ContainsAny(s, " \t\n\r[]';,=():-") {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
