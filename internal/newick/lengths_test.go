package newick

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"treemine/internal/tree"
)

func TestParseWithLengthsBasic(t *testing.T) {
	tr, lens, err := ParseWithLengths("(A:0.5,B:2,(C:1,D)E:0.25);", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lens) != tr.Size() {
		t.Fatalf("lengths = %d for %d nodes", len(lens), tr.Size())
	}
	if lens[tr.Root()] != 0 {
		t.Fatalf("root length = %v", lens[tr.Root()])
	}
	byLabel := map[string]tree.NodeID{}
	tr.Walk(func(n tree.NodeID) bool {
		if l, ok := tr.Label(n); ok {
			byLabel[l] = n
		}
		return true
	})
	for label, want := range map[string]float64{"A": 0.5, "B": 2, "C": 1, "D": 1, "E": 0.25} {
		if got := lens[byLabel[label]]; got != want {
			t.Errorf("length(%s) = %v, want %v", label, got, want)
		}
	}
}

func TestParseWithLengthsDefaults(t *testing.T) {
	tr, lens, err := ParseWithLengths("(A,B);", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes() {
		if n == tr.Root() {
			continue
		}
		if lens[n] != 7 {
			t.Fatalf("default length = %v, want 7", lens[n])
		}
	}
}

func TestParseWithLengthsErrors(t *testing.T) {
	for _, s := range []string{"(A:x,B);", "((A,B);", "(A,B);x", "(A,B"} {
		if _, _, err := ParseWithLengths(s, 1); err == nil {
			t.Errorf("ParseWithLengths(%q): expected error", s)
		}
	}
}

func TestParseWithLengthsMatchesParse(t *testing.T) {
	// The weighted parser accepts exactly what Parse accepts and builds
	// the same topology.
	inputs := []string{
		"(A,B,(C,D));",
		"('x y':1,(B)Inner:2)R;",
		"A;",
		"((((a))));",
	}
	for _, s := range inputs {
		plain, err1 := Parse(s)
		withL, _, err2 := ParseWithLengths(s, 1)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("accept mismatch on %q: %v vs %v", s, err1, err2)
		}
		if err1 == nil && !tree.Isomorphic(plain, withL) {
			t.Fatalf("topology mismatch on %q", s)
		}
	}
}

func TestWriteWithLengthsRoundTrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%25 + 2
		b := tree.NewBuilder()
		b.Root("r")
		for i := 1; i < n; i++ {
			b.Child(tree.NodeID(rng.Intn(i)), "n")
		}
		tr := b.MustBuild()
		lens := make([]float64, n)
		for i := 1; i < n; i++ {
			lens[i] = float64(rng.Intn(1000)+1) / 100
		}
		out := WriteWithLengths(tr, lens)
		back, backLens, err := ParseWithLengths(out, -1)
		if err != nil {
			t.Logf("reparse %q: %v", out, err)
			return false
		}
		if !tree.Isomorphic(tr, back) {
			return false
		}
		// All lengths explicit, so the default -1 must never appear.
		for i, l := range backLens {
			if tree.NodeID(i) != back.Root() && l <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
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
