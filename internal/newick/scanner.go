package newick

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"treemine/internal/tree"
)

// Scanner reads a stream of semicolon-terminated Newick trees one tree
// at a time, in bounded memory: only the bytes of the tree currently
// being assembled are buffered. It is the streaming counterpart of
// ParseAll (which is built on it) and plugs directly into the forest
// miners' TreeIterator contract: Next returns io.EOF after the last
// tree, and any other error is terminal.
//
// Chunking is syntax-aware: a ';' inside a quoted label ('Miller; 1988')
// or inside a [nested [comment]] does not terminate a tree, which a
// naive byte split would get wrong.
type Scanner struct {
	r      *bufio.Reader
	offset int // bytes consumed from the stream so far
	buf    []byte
	done   bool
}

// NewScanner returns a Scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: bufio.NewReader(r)}
}

// Next parses and returns the next tree from the stream. It returns
// io.EOF when the stream is exhausted (trailing whitespace and nothing
// else), and a *ParseError with stream-absolute Offset on malformed
// input. After any error the Scanner is done and keeps returning it
// or io.EOF.
func (s *Scanner) Next() (*tree.Tree, error) {
	chunkStart := s.offset
	if err := s.chunk(); err != nil {
		return nil, err
	}
	t, err := Parse(string(s.buf))
	if err != nil {
		s.done = true
		var pe *ParseError
		if errors.As(err, &pe) {
			pe.Offset += chunkStart
		}
		return nil, err
	}
	return t, nil
}

// Skim consumes the next tree chunk without parsing it — the same
// syntax-aware chunking as Next (quoted and commented ';' do not
// terminate), but the tree is never built. It returns io.EOF when the
// stream is exhausted. Skimming is how range-addressed mining seeks a
// worker's partition: the trees before its range are chunk-scanned at
// I/O speed instead of parsed, so K workers each fast-forwarding over
// the corpus prefix cost bytes, not tree builds. A chunk Skim accepted
// may still fail to parse — the worker that owns that range surfaces
// the error; skimming counts chunks, exactly the trees Next would
// attempt.
func (s *Scanner) Skim() error {
	return s.chunk()
}

// chunk scans one semicolon-terminated tree chunk into s.buf. It runs
// over bufio's whole buffered window at a time (Peek, then Discard what
// it consumed) rather than reading byte by byte. A stream whose rest is
// only whitespace and complete comments is exhausted: io.EOF.
func (s *Scanner) chunk() error {
	if s.done {
		return io.EOF
	}
	s.buf = s.buf[:0]
	inQuote := false
	commentDepth := 0
	content := false // a byte outside whitespace and comments was seen
	for {
		if _, err := s.r.Peek(1); err != nil {
			s.done = true
			if err != io.EOF {
				return fmt.Errorf("newick: read: %w", err)
			}
			if !content && commentDepth == 0 {
				return io.EOF
			}
			return &ParseError{Offset: s.offset, Msg: "missing ';'"}
		}
		win, _ := s.r.Peek(s.r.Buffered()) // cannot fail: all of it is buffered
		for i, c := range win {
			// State order matters: comments may contain quote characters
			// and quoted labels may contain brackets, mirroring the parser.
			switch {
			case commentDepth > 0:
				if c == '[' {
					commentDepth++
				} else if c == ']' {
					commentDepth--
				}
			case inQuote:
				if c == '\'' {
					inQuote = false
				}
			case c == '\'':
				inQuote, content = true, true
			case c == '[':
				commentDepth++
			case c == ';':
				win = win[:i+1]
				s.consume(win)
				return nil
			case c == ' ', c == '\t', c == '\n', c == '\r':
			default:
				content = true
			}
		}
		s.consume(win)
	}
}

// consume moves the peeked window into s.buf and past the reader.
func (s *Scanner) consume(win []byte) {
	s.buf = append(s.buf, win...)
	s.offset += len(win)
	s.r.Discard(len(win)) // cannot fail: win is already buffered
}

// Offset returns the number of bytes consumed from the stream so far.
func (s *Scanner) Offset() int { return s.offset }
