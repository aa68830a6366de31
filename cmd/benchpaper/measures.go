package main

// Measures experiment: §7's "Other possible measures could be based on
// the various distances for phylogenetic trees as described in [31]. We
// plan to compare our approach with these other methods." Pairs of trees
// at increasing topological divergence (k random NNI moves apart) are
// scored by every distance in the library; a usable measure must grow
// with k, and the cousin-based tdist should track the established
// baselines (RF, triplet, constrained edit) while remaining defined for
// unequal taxa (which the baselines are not — see internal/distance).

import (
	"math/rand"

	"treemine"
	"treemine/internal/benchutil"
	"treemine/internal/distance"
	"treemine/internal/editdist"
	"treemine/internal/parsimony"
	"treemine/internal/tree"
	"treemine/internal/treegen"
	"treemine/internal/triplet"
	"treemine/internal/updown"
)

func runMeasures(cfg config) error {
	replicates := 20
	if cfg.full {
		replicates = 100
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	taxa := treegen.Alphabet(16)
	opts := treemine.DefaultOptions()

	type measure struct {
		name string
		fn   func(a, b *tree.Tree) float64
	}
	measures := []measure{
		{"tdist_{occ,dist}", func(a, b *tree.Tree) float64 {
			return treemine.TDist(a, b, treemine.VariantDistOccur, opts)
		}},
		{"tdist_label", func(a, b *tree.Tree) float64 {
			return treemine.TDist(a, b, treemine.VariantLabel, opts)
		}},
		{"RF (norm)", func(a, b *tree.Tree) float64 {
			d, err := distance.RFNormalized(a, b)
			if err != nil {
				return -1
			}
			return d
		}},
		{"triplet", func(a, b *tree.Tree) float64 {
			d, err := triplet.Distance(a, b)
			if err != nil {
				return -1
			}
			return d
		}},
		{"updown", updown.Distance},
		{"edit (norm)", editdist.Normalized},
	}

	headers := []string{"NNI moves"}
	for _, m := range measures {
		headers = append(headers, m.name)
	}
	tb := benchutil.NewTable(headers...)
	for _, k := range []int{0, 1, 2, 4, 8, 16} {
		sums := make([]float64, len(measures))
		for r := 0; r < replicates; r++ {
			base := treegen.Yule(rng, taxa)
			moved := base
			for step := 0; step < k; step++ {
				// Pick a move and materialize only that neighbor instead
				// of building the whole NNI neighborhood.
				mvs := parsimony.NNIMoves(moved)
				if len(mvs) == 0 {
					break
				}
				moved = parsimony.ApplyNNI(moved, mvs[rng.Intn(len(mvs))])
			}
			for mi, m := range measures {
				sums[mi] += m.fn(base, moved)
			}
		}
		row := []any{k}
		for _, s := range sums {
			row = append(row, s/float64(replicates))
		}
		tb.AddRow(row...)
	}
	if err := cfg.emit(tb); err != nil {
		return err
	}
	return nil
}
