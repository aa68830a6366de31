package newick

import (
	"errors"
	"io"
	"strings"
	"testing"

	"treemine/internal/tree"
)

// FuzzParse checks on arbitrary input that the parser never panics, that
// Parse and ParseWithLengths agree with the staged oracle parser (same
// acceptance, error offset and message, trees and lengths), and that
// anything accepted survives a Write/Parse round trip isomorphically.
// The seed corpus runs as part of `go test`; use
// `go test -fuzz=FuzzParse` for open-ended exploration.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"(A,B,(C,D));",
		"(A:0.1,B:0.2,(C:0.3,D:0.4)E:0.5)F;",
		"('Homo sapiens','it''s',(X)'q(r)');",
		"[c](A[n],B) [t [nested]] ;",
		"A;",
		"(,);",
		"((((((deep))))));",
		"(A,B));",
		"('unterminated",
		"(A:xyz);",
		";",
		"()();",
		"(\x00,\xff);",
		"('''','a''''b',(c)'x''y''':1)'root''s';",
		"(A:NaN,B:Inf,(C:-1e3)D:0x1p-2)E:7;",
		"(a,b)[;];[trailing]",
		"('a b':1,(c,'d''e')f:2)[x]g",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkOracle(t, input)
		parsed, err := Parse(input)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		out := Write(parsed)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Write produced unparseable output %q from %q: %v", out, input, err)
		}
		if !tree.Isomorphic(parsed, back) {
			t.Fatalf("round trip changed tree: %q → %q", input, out)
		}
		// Write must be a fixed point: serializing the reparse yields the
		// same bytes.
		if again := Write(back); again != out {
			t.Fatalf("Write not stable: %q then %q", out, again)
		}
	})
}

// FuzzScanner feeds arbitrary byte streams through the syntax-aware
// chunker: it must terminate, never panic, fail only with ParseErrors
// (or clean io.EOF), agree with a byte-at-a-time reference chunker on
// every chunk offset (and with the oracle parser on every chunk), and
// every tree it does yield must survive the Write round trip. Multi-tree streams with ';' hidden in quotes and
// comments are the seeds — exactly the cases a naive byte split chunks
// wrong.
func FuzzScanner(f *testing.F) {
	seeds := []string{
		"(a,b);(c,d);",
		"('a;b',c);[x;](d,e);",
		"(a,b);garbage",
		"'open quote(a,b);",
		"[unclosed comment (a,b);",
		"(a,b);((c,d);",
		";;;",
		"(a,b);\n[end of file]\n",
		"(a,b);[open [nested] comment",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkScanner(t, input)
		sc := NewScanner(strings.NewReader(input))
		for {
			tr, err := sc.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrSyntax) {
					t.Fatalf("non-syntax error from Scanner on %q: %v", input, err)
				}
				// Errors are terminal: the next call reports EOF.
				if _, next := sc.Next(); next != io.EOF {
					t.Fatalf("Scanner not terminal after error: %v", next)
				}
				return
			}
			if _, err := Parse(Write(tr)); err != nil {
				t.Fatalf("scanned tree does not round-trip: %v", err)
			}
		}
	})
}
