package nexus

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"treemine/internal/tree"
	"treemine/internal/treegen"
)

const sample = `#NEXUS
[ a file-level comment ]
BEGIN TAXA;
	DIMENSIONS NTAX=4;
	TAXLABELS Homo_sapiens Pan 'Gorilla gorilla' Pongo;
END;

BEGIN TREES;
	TRANSLATE
		1 Homo_sapiens,
		2 Pan,
		3 'Gorilla gorilla',
		4 Pongo;
	TREE primates = [&R] ((1,2),(3,4));
	TREE 'alt hypothesis' = [&U] ((1:0.1,3:0.2),(2,4));
END;
`

func TestParseSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	wantTaxa := []string{"Homo sapiens", "Pan", "Gorilla gorilla", "Pongo"}
	if len(f.Taxa) != 4 {
		t.Fatalf("taxa = %v", f.Taxa)
	}
	for i, w := range wantTaxa {
		if f.Taxa[i] != w {
			t.Errorf("taxa[%d] = %q, want %q", i, f.Taxa[i], w)
		}
	}
	if len(f.Trees) != 2 {
		t.Fatalf("trees = %d", len(f.Trees))
	}
	if f.Trees[0].Name != "primates" || !f.Trees[0].Rooted {
		t.Errorf("tree 0 = %+v", f.Trees[0])
	}
	if f.Trees[1].Name != "alt hypothesis" || f.Trees[1].Rooted {
		t.Errorf("tree 1 = %+v", f.Trees[1])
	}
	// Translate table applied: leaves carry taxon names.
	labels := f.Trees[0].Tree.LeafLabels()
	if len(labels) != 4 || labels[0] != "Gorilla gorilla" {
		t.Fatalf("leaf labels = %v", labels)
	}
}

func TestParseSkipsUnknownBlocks(t *testing.T) {
	in := `#NEXUS
BEGIN CHARACTERS;
	DIMENSIONS NCHAR=10;
	MATRIX a ACGT b ACGT;
END;
BEGIN TREES;
	TREE t1 = (a,b);
END;
`
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Trees) != 1 {
		t.Fatalf("trees = %d", len(f.Trees))
	}
}

func TestParseUntranslatedLabels(t *testing.T) {
	in := "#NEXUS\nBEGIN TREES;\nTREE t = (Homo_sapiens,Pan);\nEND;\n"
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	labels := f.Trees[0].Tree.LeafLabels()
	if labels[0] != "Homo sapiens" {
		t.Fatalf("underscore rule not applied: %v", labels)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                     // missing header
		"BEGIN TREES; END;",                    // missing #NEXUS
		"#NEXUS\nBEGIN TREES;\nTREE t = (a,b)", // unterminated tree
		"#NEXUS\nBEGIN TREES;\n",               // unterminated block
		"#NEXUS\nBEGIN TAXA;\nTAXLABELS a b",   // unterminated taxlabels
		"#NEXUS\nBEGIN FOO;\nstuff",            // unterminated unknown block
		"#NEXUS\nBEGIN TREES;\nTREE t = ((a,b);\nEND;", // bad newick
		"#NEXUS\nstray tokens",                         // not a block
	}
	for _, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		} else if !errors.Is(err, ErrSyntax) && !strings.Contains(err.Error(), "newick") {
			t.Errorf("Parse(%q): error %v is neither ErrSyntax nor newick", in, err)
		}
	}
}

func TestParseEndblockAndExtras(t *testing.T) {
	// ENDBLOCK terminator, UTREE statements, commands skipped inside
	// known blocks, and [&U] markers on UTREE.
	in := `#NEXUS
BEGIN TAXA;
	DIMENSIONS NTAX=2;
	TAXLABELS a b;
ENDBLOCK;
BEGIN TREES;
	LINK TAXA = default;
	UTREE u1 = [&U] (a,b);
ENDBLOCK;
`
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Trees) != 1 || f.Trees[0].Rooted {
		t.Fatalf("UTREE parse wrong: %+v", f.Trees)
	}
	if len(f.Taxa) != 2 {
		t.Fatalf("taxa = %v", f.Taxa)
	}
}

func TestParseTranslateWithoutComma(t *testing.T) {
	// The final TRANSLATE entry ends at the semicolon directly.
	in := "#NEXUS\nBEGIN TREES;\nTRANSLATE 1 alpha;\nTREE t = (1,x);\nEND;\n"
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	labels := f.Trees[0].Tree.LeafLabels()
	if labels[0] != "alpha" {
		t.Fatalf("translate not applied: %v", labels)
	}
}

func TestParseErrorsMore(t *testing.T) {
	cases := []string{
		"#NEXUS\nBEGIN TAXA;\nTAXLABELS a b;\n",     // unterminated TAXA block
		"#NEXUS\nBEGIN TREES;\nTRANSLATE 1",         // truncated translate
		"#NEXUS\nBEGIN TREES;\nTREE t (a,b);\nEND;", // missing '='
		"#NEXUS\nBEGIN TAXA;\nDIMENSIONS NTAX=2",    // unterminated command
		"#NEXUS\nBEGIN FOO;\nEND",                   // END without ';'
	}
	for _, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestWriteParsesBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	taxa := []string{"Homo sapiens", "Pan troglodytes", "Gorilla", "Pongo abelii", "Hylobates"}
	f := &File{
		Trees: []TreeEntry{
			{Name: "one", Rooted: true, Tree: treegen.Yule(rng, taxa)},
			{Name: "alt 2", Rooted: false, Tree: treegen.Yule(rng, taxa)},
		},
	}
	var b strings.Builder
	if err := Write(&b, f); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, b.String())
	}
	if len(back.Taxa) != 5 {
		t.Fatalf("taxa = %v", back.Taxa)
	}
	if len(back.Trees) != 2 {
		t.Fatalf("trees = %d", len(back.Trees))
	}
	for i := range f.Trees {
		if !tree.Isomorphic(f.Trees[i].Tree, back.Trees[i].Tree) {
			t.Errorf("tree %d not isomorphic after round trip:\nout: %s", i, b.String())
		}
		if back.Trees[i].Rooted != f.Trees[i].Rooted {
			t.Errorf("tree %d rooted flag lost", i)
		}
		if back.Trees[i].Name != f.Trees[i].Name {
			t.Errorf("tree %d name = %q, want %q", i, back.Trees[i].Name, f.Trees[i].Name)
		}
	}
}

func TestWriteUnnamedTreesGetNames(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := &File{Trees: []TreeEntry{{Tree: treegen.Yule(rng, []string{"a", "b", "c"})}}}
	var b strings.Builder
	if err := Write(&b, f); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tree_1") {
		t.Fatalf("default name missing:\n%s", b.String())
	}
}

func TestQuoteNexus(t *testing.T) {
	if quoteNexus("plain") != "plain" {
		t.Error("plain word quoted")
	}
	if quoteNexus("has space") != "'has space'" {
		t.Error("space not quoted")
	}
	if quoteNexus("it's") != "'it''s'" {
		t.Error("quote not escaped")
	}
	if quoteNexus("") != "''" {
		t.Error("empty not quoted")
	}
}
