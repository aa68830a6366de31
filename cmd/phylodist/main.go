// Command phylodist computes pairwise distance matrices between
// phylogenies and optionally clusters them. It exposes every distance in
// the library: the paper's four cousin-based measures (§5.3), which work
// for trees over different taxa, plus the Robinson–Foulds and triplet
// baselines the paper contrasts with and the TreeRank UpDown distance.
//
// Usage:
//
//	phylodist [flags] [file.nwk|file.nex ...]
//
// Examples:
//
//	phylodist -measure tdist-occ-dist trees.nwk      # distance matrix
//	phylodist -measure rf trees.nwk                  # Robinson–Foulds
//	phylodist -cluster 3 -linkage average trees.nwk  # cluster the trees
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"treemine"
	"treemine/internal/benchutil"
	"treemine/internal/cluster"
	"treemine/internal/distance"
	"treemine/internal/editdist"
	"treemine/internal/phyloio"
	"treemine/internal/sigctx"
	"treemine/internal/triplet"
	"treemine/internal/updown"
)

func main() {
	ctx, stop := sigctx.WithSignals(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "phylodist:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// tdistVariants maps the tdist measure names to their variants; these
// measures bypass the per-pair loop and go through the profile-backed
// matrix engine, which mines every tree once and fills the matrix in
// parallel.
var tdistVariants = map[string]treemine.Variant{
	"tdist-label":    treemine.VariantLabel,
	"tdist-dist":     treemine.VariantDist,
	"tdist-occ":      treemine.VariantOccur,
	"tdist-occ-dist": treemine.VariantDistOccur,
}

// measures maps the remaining flag values to pairwise distance functions.
func measures() map[string]func(a, b *treemine.Tree) (float64, error) {
	return map[string]func(a, b *treemine.Tree) (float64, error){
		"rf":      distance.RFNormalized,
		"triplet": triplet.Distance,
		"updown": func(a, b *treemine.Tree) (float64, error) {
			return updown.Distance(a, b), nil
		},
		"edit": func(a, b *treemine.Tree) (float64, error) {
			return editdist.Normalized(a, b), nil
		},
	}
}

// modeFlags lists every flag each output mode reads, the flags that
// select the mode included: the matrix, an agglomerative clustering, or
// a k-medoids one. The tdist-* measures also read -maxdist. run rejects
// any other flag set on the command line, so a flag the run would
// ignore is an error, never a silent no-op.
var modeFlags = map[string][]string{
	"matrix":   {"measure", "cluster"},
	"cluster":  {"measure", "cluster", "linkage"},
	"kmedoids": {"measure", "cluster", "linkage", "seed"},
}

// checkFlags rejects the first flag set, in lexical order, that a run
// of the measure in the mode does not read.
func checkFlags(fs *flag.FlagSet, measure, mode string, isTDist bool) (err error) {
	read := modeFlags[mode]
	if isTDist {
		read = append(slices.Clone(read), "maxdist")
	}
	fs.Visit(func(fl *flag.Flag) {
		if err == nil && !slices.Contains(read, fl.Name) {
			err = fmt.Errorf("-%s is not read by -measure %s in %s mode; drop -%s", fl.Name, measure, mode, fl.Name)
		}
	})
	return err
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("phylodist", flag.ContinueOnError)
	fs.SetOutput(stdout)
	measure := fs.String("measure", "tdist-occ-dist",
		"distance: tdist-label, tdist-dist, tdist-occ, tdist-occ-dist, rf, triplet, updown, or edit")
	maxDist := fs.String("maxdist", "1.5", "maximum cousin distance for the tdist measures")
	k := fs.Int("cluster", 0, "when > 0, cluster the trees into k groups instead of printing the matrix")
	linkage := fs.String("linkage", "average", "clustering linkage: single, complete, average, or kmedoids")
	seed := fs.Int64("seed", 1, "seed for k-medoids restarts")
	if err := fs.Parse(args); err != nil {
		return err
	}

	variant, isTDist := tdistVariants[*measure]
	fn, isPairwise := measures()[*measure]
	if !isTDist && !isPairwise {
		return fmt.Errorf("unknown measure %q", *measure)
	}
	mode := "matrix"
	if *k > 0 {
		mode = "cluster"
		if *linkage == "kmedoids" {
			mode = "kmedoids"
		}
	}
	if err := checkFlags(fs, *measure, mode, isTDist); err != nil {
		return err
	}
	d, err := treemine.ParseDist(*maxDist)
	if err != nil {
		return err
	}
	if d.IsWild() {
		return fmt.Errorf("-maxdist must be a concrete distance, not %q", *maxDist)
	}
	opts := treemine.Options{MaxDist: d, MinOccur: 1}

	trees, err := phyloio.ReadTrees(fs.Args(), stdin)
	if err != nil {
		return err
	}
	if len(trees) < 2 {
		return fmt.Errorf("need at least 2 trees, have %d", len(trees))
	}

	var m *cluster.Matrix
	if isTDist {
		m, err = treemine.TDistMatrixCtx(ctx, trees, variant, opts)
		if err != nil {
			return err
		}
	} else {
		m = cluster.NewMatrix(len(trees))
		for i := 0; i < len(trees); i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for j := i + 1; j < len(trees); j++ {
				v, err := fn(trees[i], trees[j])
				if err != nil {
					return fmt.Errorf("%s(T%d, T%d): %w", *measure, i+1, j+1, err)
				}
				m.Set(i, j, v)
			}
		}
	}

	if *k > 0 {
		return runCluster(m, *k, *linkage, *seed, stdout)
	}

	headers := []string{*measure}
	for i := range trees {
		headers = append(headers, fmt.Sprintf("T%d", i+1))
	}
	tb := benchutil.NewTable(headers...)
	for i := range trees {
		row := []any{fmt.Sprintf("T%d", i+1)}
		for j := range trees {
			row = append(row, m.At(i, j))
		}
		tb.AddRow(row...)
	}
	tb.Fprint(stdout)
	return nil
}

func runCluster(m *cluster.Matrix, k int, linkage string, seed int64, stdout io.Writer) error {
	var assign []int
	switch linkage {
	case "kmedoids":
		res, err := cluster.KMedoids(m, k, seed)
		if err != nil {
			return err
		}
		assign = res.Assignment
		fmt.Fprintf(stdout, "k-medoids cost: %.4f, medoids:", res.Cost)
		for _, md := range res.Medoids {
			fmt.Fprintf(stdout, " T%d", md+1)
		}
		fmt.Fprintln(stdout)
	default:
		ls := []cluster.Linkage{cluster.Single, cluster.Complete, cluster.Average}
		at := slices.IndexFunc(ls, func(l cluster.Linkage) bool { return l.String() == linkage })
		if at < 0 {
			return fmt.Errorf("unknown linkage %q", linkage)
		}
		var err error
		if assign, err = cluster.Agglomerate(m, ls[at]).Cut(k); err != nil {
			return err
		}
	}
	tb := benchutil.NewTable("tree", "cluster")
	for i, c := range assign {
		tb.AddRow(fmt.Sprintf("T%d", i+1), c)
	}
	tb.Fprint(stdout)
	return nil
}
