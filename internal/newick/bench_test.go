package newick

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// fig6Corpus returns n Table 3 trees (treegen.Fanout, DefaultParams),
// one Newick string each: the shape the fig6 workload parses.
func fig6Corpus(n int) []string {
	rng := rand.New(rand.NewSource(6))
	out := make([]string, n)
	for i := range out {
		out[i] = Write(treegen.Fanout(rng, treegen.DefaultParams()))
	}
	return out
}

// quotedCorpus returns n Table 3 trees whose labels all need quoting,
// one in eight with an escaped quote, like TreeBASE taxon names.
func quotedCorpus(n int) []string {
	rng := rand.New(rand.NewSource(7))
	out := make([]string, n)
	for i := range out {
		tr := treegen.Fanout(rng, treegen.DefaultParams())
		out[i] = Write(tree.Relabel(tr, func(l string) string {
			if rng.Intn(8) == 0 {
				return "Genus d'" + l
			}
			return "Genus species " + l
		}))
	}
	return out
}

var benchCorpora = []struct {
	name  string
	trees func(int) []string
}{
	{"fig6", fig6Corpus},
	{"quoted", quotedCorpus},
}

var sinkTree *tree.Tree

// BenchmarkParse parses each tree of a 1,000-tree corpus with Parse.
func BenchmarkParse(b *testing.B) {
	for _, c := range benchCorpora {
		trees := c.trees(1000)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(strings.Join(trees, ""))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range trees {
					t, err := Parse(s)
					if err != nil {
						b.Fatal(err)
					}
					sinkTree = t
				}
			}
		})
	}
}

// BenchmarkScanner streams a 1,000-tree corpus through Scanner: next
// chunks and parses every tree, skim only chunks.
func BenchmarkScanner(b *testing.B) {
	for _, c := range benchCorpora {
		stream := strings.Join(c.trees(1000), "\n")
		for _, mode := range []string{"next", "skim"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				b.SetBytes(int64(len(stream)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sc := NewScanner(strings.NewReader(stream))
					for {
						var err error
						if mode == "next" {
							sinkTree, err = sc.Next()
						} else {
							err = sc.Skim()
						}
						if err == io.EOF {
							break
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// TestParseAllocs gates the one-pass parser's allocation count: parsing
// one 200-node Table 3 tree allocates the tree's arrays, the builder and
// the open-group stack, not per node. The staged parser it replaced
// made about 560 allocations here.
func TestParseAllocs(t *testing.T) {
	s := fig6Corpus(1)[0]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Parse(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("Parse of a 200-node tree: %.0f allocations, want <= 16", allocs)
	}
	t.Logf("Parse of a 200-node tree: %.0f allocations", allocs)
}
