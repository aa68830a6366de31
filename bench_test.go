package treemine_test

// One testing.B benchmark per table/figure of the paper, plus ablation
// benches for the design choices DESIGN.md calls out (pair enumeration
// vs. histogram aggregation vs. the naive all-pairs baseline). Fixture
// construction is excluded from timing. `go test -bench=. -benchmem`
// regenerates every row; cmd/benchpaper prints the full sweeps.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"treemine"
	"treemine/internal/consensus"
	"treemine/internal/core"
	"treemine/internal/kernel"
	"treemine/internal/oracle"
	"treemine/internal/parsimony"
	"treemine/internal/seqsim"
	"treemine/internal/tree"
	"treemine/internal/treebase"
	"treemine/internal/treegen"
)

// BenchmarkTable1Example mines the reconstructed example tree T2 of
// Figure 1 / Table 1.
func BenchmarkTable1Example(b *testing.B) {
	bd := treemine.NewBuilder()
	r := bd.RootUnlabeled()
	n2 := bd.Child(r, "a")
	n3 := bd.Child(r, "a")
	bd.Child(n2, "c")
	bd.Child(n3, "c")
	t2 := bd.MustBuild()
	opts := treemine.Options{MaxDist: treemine.D(4), MinOccur: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if items := treemine.Mine(t2, opts); len(items) != 3 {
			b.Fatalf("items = %d", len(items))
		}
	}
}

// BenchmarkFig4Fanout measures Single_Tree_Mining over the synthetic
// Table 3 trees at increasing fanout (the x-axis of Figure 4).
func BenchmarkFig4Fanout(b *testing.B) {
	for _, fanout := range []int{2, 5, 20, 60} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			t := treegen.Fanout(rng, treegen.Params{TreeSize: 200, Fanout: fanout, AlphabetSize: 200})
			opts := treemine.DefaultOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				treemine.Mine(t, opts)
			}
		})
	}
}

// BenchmarkFig5TreeSize measures Single_Tree_Mining across tree sizes and
// maxdist values (the two axes of Figure 5).
func BenchmarkFig5TreeSize(b *testing.B) {
	for _, size := range []int{200, 500, 1250} {
		for _, d := range []treemine.Dist{treemine.D(1), treemine.D(3), treemine.D(4)} {
			b.Run(fmt.Sprintf("size=%d/maxdist=%s", size, d), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				t := treegen.Fanout(rng, treegen.Params{TreeSize: size, Fanout: 5, AlphabetSize: 200})
				opts := treemine.Options{MaxDist: d, MinOccur: 1}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					treemine.Mine(t, opts)
				}
			})
		}
	}
}

// BenchmarkFig6MultiTree measures Multiple_Tree_Mining over a synthetic
// database (Figure 6's per-database cost at the Table 3 default size).
func BenchmarkFig6MultiTree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := treegen.DefaultParams()
	forest := make([]*treemine.Tree, treegen.DefaultDatabaseSize)
	for i := range forest {
		forest[i] = treegen.Fanout(rng, p)
	}
	opts := treemine.DefaultForestOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		treemine.MineForest(forest, opts)
	}
}

var fig7Corpus = sync.OnceValue(func() []*treemine.Tree {
	cfg := treebase.DefaultConfig()
	cfg.NumTrees = 250
	c, err := treebase.NewCorpus(1, cfg)
	if err != nil {
		panic(err)
	}
	return c.AllTrees()
})

// BenchmarkFig7Phylogenies measures Multiple_Tree_Mining over simulated
// TreeBASE phylogenies (Figure 7's leftmost point; cmd/benchpaper sweeps
// to 1,500).
func BenchmarkFig7Phylogenies(b *testing.B) {
	forest := fig7Corpus()
	opts := treemine.DefaultForestOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		treemine.MineForest(forest, opts)
	}
}

// BenchmarkFig8SeedPlants mines the seed-plant study of §5.1.
func BenchmarkFig8SeedPlants(b *testing.B) {
	study := treebase.SeedPlantStudy()
	opts := treemine.DefaultForestOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fp := treemine.MineForest(study.Trees, opts); len(fp) == 0 {
			b.Fatal("no frequent pairs")
		}
	}
}

var fig9Plateau = sync.OnceValue(func() []*tree.Tree {
	rng := rand.New(rand.NewSource(1))
	taxa, err := treebase.Names(16)
	if err != nil {
		panic(err)
	}
	model := treegen.Yule(rng, taxa)
	al, err := seqsim.Evolve(rng, model, 200, 0.3)
	if err != nil {
		panic(err)
	}
	seeds, _, err := parsimony.Search(rng, al, parsimony.SearchConfig{Starts: 10, MaxTrees: 35, MaxRounds: 200})
	if err != nil {
		panic(err)
	}
	set, err := parsimony.Plateau(seeds, al, 15)
	if err != nil {
		panic(err)
	}
	return set
})

// BenchmarkFig9Consensus measures each consensus method plus its
// similarity scoring over a fixed set of equally parsimonious trees
// (one Figure 9 cell per method).
func BenchmarkFig9Consensus(b *testing.B) {
	set := fig9Plateau()
	opts := treemine.DefaultOptions()
	for _, m := range treemine.ConsensusMethods() {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := consensus.Compute(m, set)
				if err != nil {
					b.Fatal(err)
				}
				if s := treemine.AvgSim(c, set, opts); s <= 0 {
					b.Fatalf("score %v", s)
				}
			}
		})
	}
}

var fig10Groups = sync.OnceValue(func() [][]*tree.Tree {
	rng := rand.New(rand.NewSource(1))
	all, err := treebase.Names(32)
	if err != nil {
		panic(err)
	}
	var groups [][]*tree.Tree
	for g := 0; g < 5; g++ {
		window := all[g*2 : g*2+24]
		var trees []*tree.Tree
		for i := 0; i < 6; i++ {
			trees = append(trees, treegen.Multifurcating(rng, window, 2, 4))
		}
		groups = append(groups, trees)
	}
	return groups
})

// BenchmarkFig10Kernel measures kernel-tree search at each group count
// of Figure 10.
func BenchmarkFig10Kernel(b *testing.B) {
	groups := fig10Groups()
	cfg := kernel.DefaultConfig()
	for s := 2; s <= 5; s++ {
		b.Run(fmt.Sprintf("groups=%d", s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kernel.Find(groups[:s], cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMiner compares the three single-tree mining
// strategies on the same workload: the paper-style pair enumeration
// (Mine), the histogram aggregation (MineCounts), and the naive
// all-pairs LCA baseline (NaiveMine, the test oracle's brute-force
// miner). This is the ablation DESIGN.md
// calls out for the guided-enumeration design choice.
func BenchmarkAblationMiner(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	t := treegen.Fanout(rng, treegen.DefaultParams())
	opts := core.DefaultOptions()
	b.Run("Mine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Mine(t, opts)
		}
	})
	b.Run("MineCounts", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.MineCounts(t, opts)
		}
	})
	b.Run("MineDP", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.MineDP(t, opts)
		}
	})
	b.Run("NaiveMine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracle.MineRooted(t, int(opts.MaxDist), opts.MinOccur)
		}
	})
}

// BenchmarkMineInterned is the ablation pair for the interned-label
// core: the same workload mined through the packed-integer-key hot path
// (Interned, what Mine does today) and through the pre-refactor
// string-keyed accumulation (StringKeyed: enumerate pairs, build one
// string Key per pair, hash into an ItemSet). The Forest sub-pair
// repeats the comparison at forest scale, where the shared symbol table
// and reused buffers matter most.
func BenchmarkMineInterned(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	t := treegen.Fanout(rng, treegen.DefaultParams())
	opts := core.DefaultOptions()
	mineString := func(t *treemine.Tree, opts core.Options) core.ItemSet {
		items := make(core.ItemSet)
		for _, p := range core.MinePairs(t, opts) {
			items[core.NewKey(t.MustLabel(p.U), t.MustLabel(p.V), p.D)]++
		}
		return items.FilterMinOccur(opts.MinOccur)
	}
	b.Run("Interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Mine(t, opts)
		}
	})
	b.Run("StringKeyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mineString(t, opts)
		}
	})
	forest := make([]*treemine.Tree, 200)
	frng := rand.New(rand.NewSource(2))
	for i := range forest {
		forest[i] = treegen.Fanout(frng, treegen.DefaultParams())
	}
	fopts := treemine.DefaultForestOptions()
	b.Run("Forest/Interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.MineForest(forest, fopts)
		}
	})
	b.Run("Forest/StringKeyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sup := make(map[core.Key]int)
			for _, t := range forest {
				items := mineString(t, fopts.Options)
				for k := range items {
					sup[k]++
				}
			}
			for k, s := range sup {
				if s < fopts.MinSup {
					delete(sup, k)
				}
			}
		}
	})
}

// BenchmarkAblationNewick measures parse/serialize throughput on a
// TreeBASE-sized phylogeny, the I/O path of every CLI.
func BenchmarkAblationNewick(b *testing.B) {
	forest := fig7Corpus()
	s := treemine.WriteNewick(forest[0])
	b.Run("Parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := treemine.ParseNewick(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			treemine.WriteNewick(forest[0])
		}
	})
}

// BenchmarkTDistMatrix is the ablation trio for the pairwise-distance
// engine behind cluster.TDistMatrix, the kernel search, and phylodist:
// the per-pair fill (string-keyed Mine per tree, TDistItems per pair),
// the profile engine on one worker (frozen posting lists,
// allocation-free merge-join per pair), and the profile engine at
// GOMAXPROCS. Fixture construction is excluded from timing.
func BenchmarkTDistMatrix(b *testing.B) {
	for _, n := range []int{50, 200, 500} {
		rng := rand.New(rand.NewSource(3))
		taxa := treegen.Alphabet(30)
		forest := make([]*tree.Tree, n)
		for i := range forest {
			off := rng.Intn(6)
			forest[i] = treegen.Yule(rng, taxa[off:off+24])
		}
		opts := core.DefaultOptions()
		v := core.VariantDistOccur
		// serial-maps keeps its name for BENCH_3.json continuity; it now
		// times the item-set entry point (TDistItems freezes both sets).
		b.Run(fmt.Sprintf("n=%d/serial-maps", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				items := make([]core.ItemSet, n)
				for j, t := range forest {
					items[j] = core.Mine(t, opts)
				}
				for x := 0; x < n; x++ {
					for y := x + 1; y < n; y++ {
						core.TDistItems(items[x], items[y], v)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/profiles", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.TDistMatrixParallel(forest, v, opts, 1)
			}
		})
		b.Run(fmt.Sprintf("n=%d/parallel", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.TDistMatrixParallel(forest, v, opts, 0)
			}
		})
	}
}
