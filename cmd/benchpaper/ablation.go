package main

// Ablation experiment: the three+1 single-tree mining strategies on the
// same workloads. Not a figure in the paper — it isolates the design
// choices DESIGN.md calls out: guided pair enumeration (the paper's
// algorithm), histogram aggregation, the §7 dynamic-programming
// alternative, and the naive all-pairs-LCA baseline the paper's §7
// explicitly argues against ("we systematically enumerate the cousins
// rather than taking random pairs of nodes"). That baseline is the
// test oracle's brute-force miner, internal/oracle.MineRooted.

import (
	"math/rand"

	"treemine/internal/benchutil"
	"treemine/internal/core"
	"treemine/internal/oracle"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

func runAblation(cfg config) error {
	trees := 30
	if cfg.full {
		trees = 200
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	miners := []struct {
		name string
		run  func(*tree.Tree, core.Options)
	}{
		{"Mine", func(t *tree.Tree, o core.Options) { core.Mine(t, o) }},
		{"MineCounts", func(t *tree.Tree, o core.Options) { core.MineCounts(t, o) }},
		{"MineDP", func(t *tree.Tree, o core.Options) { core.MineDP(t, o) }},
		{"NaiveMine", func(t *tree.Tree, o core.Options) { oracle.MineRooted(t, int(o.MaxDist), o.MinOccur) }},
	}
	headers := []string{"tree size", "maxdist"}
	for _, m := range miners {
		headers = append(headers, m.name)
	}
	tb := benchutil.NewTable(headers...)
	for _, size := range []int{100, 200, 400, 800} {
		p := treegen.Params{TreeSize: size, Fanout: 5, AlphabetSize: 200}
		batch := make([]*tree.Tree, trees)
		for i := range batch {
			batch[i] = treegen.Fanout(rng, p)
		}
		// The guided miners' cost tracks the output size (maxdist-bound),
		// the naive baseline's does not — the design point §7 argues.
		for _, d := range []core.Dist{core.D(1), core.D(3)} {
			opts := core.Options{MaxDist: d, MinOccur: 1}
			row := []any{size, d.String()}
			for _, m := range miners {
				run := m.run
				row = append(row, benchutil.AvgTime(trees, func(i int) { run(batch[i], opts) }))
			}
			tb.AddRow(row...)
		}
	}
	if err := cfg.emit(tb); err != nil {
		return err
	}
	return nil
}
