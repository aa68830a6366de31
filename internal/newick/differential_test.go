package newick

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// diffTree describes the first difference between a parsed tree and the
// oracle's, or returns "" when every node has the same parent, children
// (in order), label, labeled flag and depth.
func diffTree(got *tree.Tree, want *refTree) string {
	if got.Size() != len(want.parent) {
		return fmt.Sprintf("size %d, oracle %d", got.Size(), len(want.parent))
	}
	for i := range want.parent {
		n := tree.NodeID(i)
		if got.Parent(n) != want.parent[i] {
			return fmt.Sprintf("node %d: parent %d, oracle %d", i, got.Parent(n), want.parent[i])
		}
		kids := got.Children(n)
		if len(kids) != len(want.children[i]) {
			return fmt.Sprintf("node %d: children %v, oracle %v", i, kids, want.children[i])
		}
		for j := range kids {
			if kids[j] != want.children[i][j] {
				return fmt.Sprintf("node %d: children %v, oracle %v", i, kids, want.children[i])
			}
		}
		if got.MustLabel(n) != want.labels[i] || got.Labeled(n) != want.labeled[i] {
			return fmt.Sprintf("node %d: label %q/%v, oracle %q/%v",
				i, got.MustLabel(n), got.Labeled(n), want.labels[i], want.labeled[i])
		}
		if got.Depth(n) != want.depth[i] {
			return fmt.Sprintf("node %d: depth %d, oracle %d", i, got.Depth(n), want.depth[i])
		}
	}
	return ""
}

// diffErr compares a parse error with the oracle's: both nil, or both
// ParseErrors at the same offset with the same message.
func diffErr(got, want error) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("error %v, oracle %v", got, want)
	}
	if got == nil {
		return ""
	}
	var g, w *ParseError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		return fmt.Sprintf("error %v, oracle %v: not both ParseErrors", got, want)
	}
	if *g != *w {
		return fmt.Sprintf("error %+v, oracle %+v", *g, *w)
	}
	return ""
}

// checkOracle parses input with Parse and ParseWithLengths and with the
// staged oracle, and fails on any difference in acceptance, error
// offset and message, tree shape, labels or branch lengths.
func checkOracle(t *testing.T, input string) {
	t.Helper()
	got, err := Parse(input)
	want, wantErr := oracleParse(input)
	if d := diffErr(err, wantErr); d != "" {
		t.Fatalf("Parse(%q): %s", input, d)
	}
	if err == nil {
		if d := diffTree(got, want); d != "" {
			t.Fatalf("Parse(%q): %s", input, d)
		}
	}

	const def = 1.5
	gotL, lens, err := ParseWithLengths(input, def)
	wantL, wantLens, wantErr := oracleParseWithLengths(input, def)
	if d := diffErr(err, wantErr); d != "" {
		t.Fatalf("ParseWithLengths(%q): %s", input, d)
	}
	if err != nil {
		return
	}
	if d := diffTree(gotL, wantL); d != "" {
		t.Fatalf("ParseWithLengths(%q): %s", input, d)
	}
	if len(lens) != len(wantLens) {
		t.Fatalf("ParseWithLengths(%q): %d lengths, oracle %d", input, len(lens), len(wantLens))
	}
	for i := range lens {
		if math.Float64bits(lens[i]) != math.Float64bits(wantLens[i]) {
			t.Fatalf("ParseWithLengths(%q): node %d length %v, oracle %v", input, i, lens[i], wantLens[i])
		}
	}
}

// oracleCorpus is the seeded table of the differential test: Table 3
// trees, caterpillars both ways round, quoted and escaped labels,
// comments and branch lengths, and malformed input.
func oracleCorpus() []string {
	rng := rand.New(rand.NewSource(14))
	var in []string
	for _, p := range []treegen.Params{
		treegen.DefaultParams(),
		{TreeSize: 40, Fanout: 2, AlphabetSize: 5},
		{TreeSize: 60, Fanout: 12, AlphabetSize: 60},
	} {
		for i := 0; i < 3; i++ {
			tr := treegen.Fanout(rng, p)
			in = append(in, Write(tr))
			lens := make([]float64, tr.Size())
			for j := range lens {
				lens[j] = float64(rng.Intn(10000)) / 1000
			}
			in = append(in, WriteWithLengths(tr, lens))
		}
	}
	for _, n := range []int{1, 2, 7, 300} {
		right, left := "t0", "t0"
		for i := 1; i <= n; i++ {
			right = fmt.Sprintf("(t%d,%s)", i, right)
			left = fmt.Sprintf("(%s,t%d:%d)", left, i, i)
		}
		in = append(in, right+";", left+"root;")
	}
	in = append(in,
		"('Homo sapiens','it''s',(X)'q(r)');",
		"('''','a''''b',(c)'x''y''':1)'root''s';",
		"('Miller; 1988', 'a [not a comment]' ,'(,):;')'';",
		"[c](A[n],B) [t [nested]] ;",
		"(a,b)[;];[trailing]",
		"( a , b )\n\t\r label ;",
		"(A:0.1,B:-2,(C:+4,D:1e-3)E:5)F:7;",
		"(A:NaN,B:Inf,C:-Inf,D:0x1p-2);",
		"(A: 1 ,B :2,(C)[x]:3);",
		"A;", "'A';", ":1;", ";", "(,);", "((,),(,));", "((((((deep))))));",
		"", "(", ")", "()", "();", "()();", "(A,B));", "((A,B);", "(A B);",
		"(a,b)c d;", "(A:xyz);", "(A:);", "(A:1:2);", "('open", "(a,'b", "[open(a,b);",
		"(a,b);(c,d);", "(a,b) ; x", "(a]b);", "(a,b)'q'r;", "(\x00,\xff);", "(a,\x00b)\x00;",
	)
	// Every proper prefix and every single-byte deletion of a few
	// well-formed trees: malformed input at every grammar position.
	for _, s := range []string{
		"('a b':1,(c,'d''e')f:2)[x]g:3;",
		"((A,B)C,(D:1,E)F)G;",
	} {
		for i := 0; i < len(s); i++ {
			in = append(in, s[:i], s[:i]+s[i+1:])
		}
	}
	return in
}

// TestParseMatchesOracle: the one-pass parser builds the same trees as
// the staged parser it replaced, and rejects the same input at the same
// offset with the same message.
func TestParseMatchesOracle(t *testing.T) {
	for _, s := range oracleCorpus() {
		checkOracle(t, s)
	}
}

// refChunk is one step of refChunks: a chunk's end offset, or the
// stream's end (io.EOF or a missing-';' ParseError at end).
type refChunk struct {
	end int
	err error
}

// refChunks splits input the way a byte-at-a-time chunker does: ';'
// ends a chunk unless it is quoted or inside a (nested) comment, and a
// tail of only whitespace and complete comments is a clean end.
func refChunks(input string) []refChunk {
	var out []refChunk
	start := 0
	for start <= len(input) {
		inQuote, depth, content := false, 0, false
		i := start
		for ; i < len(input); i++ {
			c := input[i]
			if depth > 0 {
				if c == '[' {
					depth++
				} else if c == ']' {
					depth--
				}
				continue
			}
			if inQuote {
				inQuote = c != '\''
				continue
			}
			if c == ';' {
				break
			}
			switch c {
			case '\'':
				inQuote, content = true, true
			case '[':
				depth++
			case ' ', '\t', '\n', '\r':
			default:
				content = true
			}
		}
		if i == len(input) {
			if !content && depth == 0 {
				return append(out, refChunk{end: len(input), err: io.EOF})
			}
			return append(out, refChunk{end: len(input), err: &ParseError{Offset: len(input), Msg: "missing ';'"}})
		}
		out = append(out, refChunk{end: i + 1})
		start = i + 1
	}
	return out
}

// checkScanner drives Scanner over input through several reader shapes
// (whole, one byte per Read, half the request per Read) so chunks span
// bufio window boundaries, and checks Skim's and Next's offsets, trees
// and errors against refChunks and the oracle.
func checkScanner(t *testing.T, input string) {
	t.Helper()
	ref := refChunks(input)
	readers := map[string]func() io.Reader{
		"whole":   func() io.Reader { return strings.NewReader(input) },
		"onebyte": func() io.Reader { return iotest.OneByteReader(strings.NewReader(input)) },
		"half":    func() io.Reader { return iotest.HalfReader(strings.NewReader(input)) },
	}
	for name, open := range readers {
		sc := NewScanner(open())
		for i, want := range ref {
			err := sc.Skim()
			if d := diffErr(errOrNil(err), errOrNil(want.err)); d != "" || (err == io.EOF) != (want.err == io.EOF) {
				t.Fatalf("%s: Skim %d of %q: error %v, reference %v", name, i, input, err, want.err)
			}
			if sc.Offset() != want.end {
				t.Fatalf("%s: Skim %d of %q: offset %d, reference %d", name, i, input, sc.Offset(), want.end)
			}
		}

		sc = NewScanner(open())
		start := 0
		for i, want := range ref {
			tr, err := sc.Next()
			if want.err != nil {
				if d := diffErr(errOrNil(err), errOrNil(want.err)); d != "" || (err == io.EOF) != (want.err == io.EOF) {
					t.Fatalf("%s: Next %d of %q: error %v, reference %v", name, i, input, err, want.err)
				}
				break
			}
			oracle, oracleErr := oracleParse(input[start:want.end])
			if oracleErr != nil {
				oracleErr.(*ParseError).Offset += start
			}
			if d := diffErr(err, oracleErr); d != "" {
				t.Fatalf("%s: Next %d of %q: %s", name, i, input, d)
			}
			if err != nil {
				if _, next := sc.Next(); next != io.EOF {
					t.Fatalf("%s: Scanner not terminal after error: %v", name, next)
				}
				break
			}
			if d := diffTree(tr, oracle); d != "" {
				t.Fatalf("%s: Next %d of %q: %s", name, i, input, d)
			}
			if sc.Offset() != want.end {
				t.Fatalf("%s: Next %d of %q: offset %d, reference %d", name, i, input, sc.Offset(), want.end)
			}
			start = want.end
		}
	}
}

// errOrNil maps the clean end of a stream to nil, leaving ParseErrors.
func errOrNil(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// TestScannerMatchesReference: chunk offsets, trees and errors of the
// windowed chunker agree with a byte-at-a-time reference.
func TestScannerMatchesReference(t *testing.T) {
	inputs := []string{
		strings.Join(oracleCorpus()[:18], "\n"),
		"(a,b);('x;y',c);[c;mm](d,e);(f,g);",
		"(a,b);\n[end of file]\n",
		"(a,b);[unterminated",
		"(a,b);'unterminated",
		"(a,b);(c,d)",
		"((broken;(a,b);",
		"(a,b);] stray",
		"  \n\t[only [a] comment]\r\n",
	}
	for _, s := range inputs {
		checkScanner(t, s)
	}
}
