package newick

import (
	"errors"
	"io"
	"strings"
	"testing"

	"treemine/internal/tree"
)

func scanAll(t *testing.T, input string) []*tree.Tree {
	t.Helper()
	sc := NewScanner(strings.NewReader(input))
	var out []*tree.Tree
	for {
		tr, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, tr)
	}
}

func TestScannerMultipleTrees(t *testing.T) {
	trees := scanAll(t, "(a,b);\n(c,(d,e));  ((f,g),h) ;")
	if len(trees) != 3 {
		t.Fatalf("got %d trees, want 3", len(trees))
	}
	if got := Write(trees[1]); got != "(c,(d,e));" {
		t.Fatalf("tree 2 = %q", got)
	}
}

// TestScannerQuotedSemicolon pins the syntax-aware chunking: a ';'
// inside a quoted label must not terminate the tree.
func TestScannerQuotedSemicolon(t *testing.T) {
	trees := scanAll(t, "('Miller; 1988',b);('x''y;z',c);")
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	kids := trees[0].Children(trees[0].Root())
	if l, _ := trees[0].Label(kids[0]); l != "Miller; 1988" {
		t.Fatalf("label = %q", l)
	}
	kids = trees[1].Children(trees[1].Root())
	if l, _ := trees[1].Label(kids[0]); l != "x'y;z" {
		t.Fatalf("escaped label = %q", l)
	}
}

// TestScannerCommentSemicolon: a ';' inside a (possibly nested) comment
// is not a terminator either.
func TestScannerCommentSemicolon(t *testing.T) {
	trees := scanAll(t, "[header; [nested;]](a,b);(c,d)[trailing;];")
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	if got := Write(trees[0]); got != "(a,b);" {
		t.Fatalf("tree 1 = %q", got)
	}
}

// TestScannerErrorOffset: parse errors in later trees report
// stream-absolute offsets, matching ParseAll's contract.
func TestScannerErrorOffset(t *testing.T) {
	sc := NewScanner(strings.NewReader("(a,b);(c,d));"))
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := sc.Next()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ParseError", err)
	}
	// The stray ')' sits at absolute offset 11.
	if pe.Offset != 11 {
		t.Fatalf("Offset = %d, want 11", pe.Offset)
	}
	if !errors.Is(err, ErrSyntax) {
		t.Fatal("not ErrSyntax")
	}
	// After an error the scanner is done.
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("post-error Next = %v, want io.EOF", err)
	}
}

func TestScannerMissingSemicolon(t *testing.T) {
	sc := NewScanner(strings.NewReader("(a,b);(c,d)"))
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := sc.Next()
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Msg != "missing ';'" {
		t.Fatalf("err = %v, want missing ';'", err)
	}
	if pe.Offset != len("(a,b);(c,d)") {
		t.Fatalf("Offset = %d", pe.Offset)
	}
}

func TestScannerBlankInput(t *testing.T) {
	for _, input := range []string{"", "  \n\t\r\n"} {
		sc := NewScanner(strings.NewReader(input))
		if _, err := sc.Next(); err != io.EOF {
			t.Fatalf("input %q: err = %v, want io.EOF", input, err)
		}
	}
}

// TestScannerTrailingComment: after the last ';', a tail of whitespace
// and complete comments is the end of the stream, as Parse already
// accepts for a single tree; an unterminated comment is still an error.
func TestScannerTrailingComment(t *testing.T) {
	const input = "(a,b);\n[end of file [nested]]\n"
	trees, err := ParseAll(strings.NewReader(input))
	if err != nil || len(trees) != 1 {
		t.Fatalf("ParseAll = %d trees, %v; want 1, nil", len(trees), err)
	}
	sc := NewScanner(strings.NewReader(input))
	if err := sc.Skim(); err != nil {
		t.Fatalf("Skim: %v", err)
	}
	if err := sc.Skim(); err != io.EOF {
		t.Fatalf("Skim over trailing comment = %v, want io.EOF", err)
	}
	if sc.Offset() != len(input) {
		t.Fatalf("Offset = %d, want %d", sc.Offset(), len(input))
	}

	const open = "(a,b);\n[end of file\n"
	sc = NewScanner(strings.NewReader(open))
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = sc.Next()
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Msg != "missing ';'" || pe.Offset != len(open) {
		t.Fatalf("unterminated trailing comment: err = %v, want missing ';' at %d", err, len(open))
	}
}

// TestScannerAgreesWithParseAll: the streaming and materializing paths
// must see the same forest.
func TestScannerAgreesWithParseAll(t *testing.T) {
	const input = "(a,(b,c))root;\n'q t':1.5;\n(x,y,z);"
	fromAll, err := ParseAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	fromScan := scanAll(t, input)
	if len(fromAll) != len(fromScan) {
		t.Fatalf("%d vs %d trees", len(fromAll), len(fromScan))
	}
	for i := range fromAll {
		if Write(fromAll[i]) != Write(fromScan[i]) {
			t.Fatalf("tree %d differs: %q vs %q", i, Write(fromAll[i]), Write(fromScan[i]))
		}
	}
}

// TestScannerOffsetProgress: Offset tracks consumed bytes, usable for
// progress reporting over large files.
func TestScannerOffsetProgress(t *testing.T) {
	sc := NewScanner(strings.NewReader("(a,b);(c,d);"))
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if sc.Offset() != 6 {
		t.Fatalf("Offset after first tree = %d, want 6", sc.Offset())
	}
}

// TestScannerSkim: Skim consumes exactly the chunks Next would —
// including quoted and commented semicolons — and interleaves with
// Next without desynchronizing.
func TestScannerSkim(t *testing.T) {
	const input = "(a,b);('x;y',c);[c;mm](d,e);(f,g);"
	s := NewScanner(strings.NewReader(input))
	if err := s.Skim(); err != nil {
		t.Fatalf("skim 0: %v", err)
	}
	tr, err := s.Next()
	if err != nil {
		t.Fatalf("next after skim: %v", err)
	}
	if got := tr.MustLabel(tr.Children(tr.Root())[0]); got != "x;y" {
		t.Fatalf("tree after skim starts with %q, want the quoted label", got)
	}
	if err := s.Skim(); err != nil {
		t.Fatalf("skim 2: %v", err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatalf("next 3: %v", err)
	}
	if err := s.Skim(); err != io.EOF {
		t.Fatalf("skim past end = %v, want io.EOF", err)
	}
}

// TestScannerSkimAcceptsMalformed: a chunk that would fail to parse
// still skims — parse errors belong to whoever calls Next on it.
func TestScannerSkimAcceptsMalformed(t *testing.T) {
	s := NewScanner(strings.NewReader("((broken;(a,b);"))
	if err := s.Skim(); err != nil {
		t.Fatalf("skim over malformed chunk: %v", err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatalf("next after malformed skim: %v", err)
	}
}
